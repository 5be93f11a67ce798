"""The benchmark's workloads: CLI argument lists, set-up calls and output checks.

Each workload is one `phaselab` subcommand run at `--jobs 1` on the
`d=8 d_prime=8` instance with the default R, eps, beta and beta_max. The
workload seed is the CLI's `--seed` and the circuit seed in
`circuit=random:24:<seed>`.

This module imports nothing outside the standard library at import time: the
set-up probe imports it before it starts timing, so numpy's import must still
lie ahead of the clock.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# Artifacts that hold wall-clock data and so differ between repeats by design.
RUN_DEPENDENT = frozenset({"invert_timing.json"})


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    overrides: tuple[str, ...]
    # (key, type) pairs the subcommand adds to cli.instance_schema()
    keys: tuple[tuple[str, type], ...]
    unit: str  # what one unit of work is, plural; names the throughput, as in trials_per_s
    why: str

    def argv(self, seed: int, out: str | Path) -> list[str]:
        args = [self.subcommand, "--seed", str(seed), "--jobs", "1", "--out", str(out)]
        args += self.overrides
        if self.subcommand != "bench-acceptance":
            args += ["d=8", "d_prime=8", f"circuit=random:24:{seed}"]
        return args

    def config_overrides(self, seed: int) -> list[str]:
        """The key=value part of argv."""
        return [a for a in self.argv(seed, "-") if "=" in a]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "invert-bruteforce",
            "invert",
            ("sampler=brute-force", "trials=100"),
            (("sampler", str), ("trials", int)),
            "trials",
            "exact-oracle inversion, many small calls: every trial rebuilds the 2^8 seed "
            "table and draws one brute-force posterior sample; no score or diffusion code",
        ),
        Workload(
            "invert-heuristic",
            "invert",
            ("sampler=heuristic", "trials=2"),
            (("sampler", str), ("trials", int)),
            "trials",
            "the paper's hardness path: two trials, each a 2000-step single-chain reverse SDE "
            "scoring one point per call; the only workload where batching trials can show",
        ),
        Workload(
            "posterior-heuristic",
            "posterior",
            ("sampler=heuristic", "count=500", "steps=20"),
            (("sampler", str), ("count", int), ("steps", int)),
            "chain_steps",
            "compute-bound exact score: 500 chains per step make a (500, 256, 8) head "
            "tensor of 8 MB, larger than L2",
        ),
        Workload(
            "acceptance-curve",
            "bench-acceptance",
            ("betas=0.3", "ms=0,1,2", "trials=100"),
            (("betas", str), ("ms", str), ("trials", int)),
            "trials",
            "the paper's rejection-rounds curve from its m=0 anchor: unconditional sampling "
            "and the rejection loop, no score or diffusion code",
        ),
        Workload(
            "posterior-bulk",
            "posterior",
            ("sampler=brute-force", "count=20000"),
            (("sampler", str), ("count", int)),
            "rows",
            "artifact writing: one large brute-force batch whose CSV dominates the run; "
            "the same oracle as invert-bruteforce as one batch instead of many draws",
        ),
    )
}


def _override_value(w: Workload, key: str) -> str:
    for item in w.overrides:
        k, v = item.split("=", 1)
        if k == key:
            return v
    raise KeyError(key)


def presample(cli, w: Workload, seed: int):
    """The calls a CLI run of `w` makes before its first random draw.

    cli.resolve, then for bench-acceptance the import of phaselab.posterior,
    whose acceptance_curve builds its own instances while it samples; for the
    other subcommands cli.build_instance and the sampler or score provider the
    subcommand would build.
    """
    schema = cli.instance_schema() | {k: (t, None) for k, t in w.keys}
    if w.subcommand == "bench-acceptance":
        schema = {k: schema[k] for k in ("R", "eps", *dict(w.keys))}
    cfg = cli.resolve(schema, {}, w.config_overrides(seed))
    if w.subcommand == "bench-acceptance":
        from phaselab import posterior

        return posterior.acceptance_curve
    from phaselab import reduction

    params, f = cli.build_instance(cfg)
    sampler = cfg["sampler"]
    if w.subcommand == "posterior" and sampler == "heuristic":
        return cli.build_provider("exact", params, f)
    if sampler == "heuristic":
        return reduction.make_heuristic_sampler(params, f)
    return reduction.make_brute_force_sampler(params, f)


# --- output checks ----------------------------------------------------------------


def digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact except the run-dependent ones."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name not in RUN_DEPENDENT
    }


def check_hashes(cli, out: Path) -> list[str]:
    """The artifact-hash check of `phaselab verify`."""
    problems = []
    manifest = json.loads((out / "run_manifest.json").read_text())
    h = manifest["config_hash"]
    if cli.config_hash(manifest["config"]) != h:
        problems.append("manifest config_hash does not match its config")
    for art in sorted(out.glob("*.csv")):
        with art.open() as fh:
            first = fh.readline().rstrip("\n")
        if first != f"# config-hash: {h}":
            problems.append(f"{art.name}: first line is not the manifest's config hash")
    return problems


def acceptance_totals(text: str) -> tuple[int, int]:
    """(trials, rejection rounds) in an acceptance.csv; rounds sum mean_rounds * trials.

    Rows with m=0 are left out: acceptance_curve writes them without sampling.
    """
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    i_m, i_mean, i_trials = header.index("m"), header.index("mean_rounds"), header.index("trials")
    trials = rounds = 0
    for ln in lines[1:]:
        cells = ln.split(",")
        if int(cells[i_m]) == 0:
            continue
        trials += int(cells[i_trials])
        rounds += round(float(cells[i_mean]) * int(cells[i_trials]))
    return trials, rounds


def check_outputs(cli, w: Workload, out: Path) -> tuple[float, dict, list[str]]:
    """Check one run's artifacts. Returns (work units done, facts, problems)."""
    import numpy as np

    problems = check_hashes(cli, out)
    facts: dict = {}
    if w.subcommand == "invert":
        rep = json.loads((out / "invert_report.json").read_text())
        trials = int(_override_value(w, "trials"))
        facts = {"trials": rep["trials"], "successes": rep["successes"]}
        if rep["trials"] != trials:
            problems.append(f"report has {rep['trials']} trials, expected {trials}")
        if rep["bits_match_count"] != rep["trials"]:
            problems.append("bits_match_count != trials")
        if _override_value(w, "sampler") == "brute-force":
            if rep["success_rate"] < 0.9:
                problems.append(f"success_rate {rep['success_rate']} < 0.9")
        elif rep["no_guess_count"] != 0:
            problems.append(f"no_guess_count {rep['no_guess_count']} != 0")
        return float(rep["trials"]), facts, problems
    if w.subcommand == "bench-acceptance":
        text = (out / "acceptance.csv").read_text()
        rows = [ln.split(",") for ln in text.splitlines()[2:] if ln]
        if any(int(r[5]) != 0 for r in rows):
            problems.append("censored trials in acceptance.csv")
        by_m = {int(r[1]): float(r[3]) for r in rows}
        if not by_m[max(by_m)] > by_m[min(by_m)]:
            problems.append("log_mean_rounds does not grow from the smallest to the largest m")
        trials, rounds = acceptance_totals(text)
        return float(trials), {"rounds": rounds}, problems
    # posterior: the instance comes from the manifest, whose hash was checked above
    cfg = json.loads((out / "run_manifest.json").read_text())["config"]
    params, f = cli.build_instance({k: t(cfg[k]) for k, (t, _) in cli.instance_schema().items()})
    count = int(_override_value(w, "count"))
    x = np.loadtxt(out / "posterior.csv", delimiter=",", skiprows=2, ndmin=2)
    if x.shape != (count, params.dim):
        problems.append(f"posterior.csv has shape {x.shape}, expected ({count}, {params.dim})")
        return 0.0, facts, problems
    if not np.all(np.isfinite(x)):
        problems.append("posterior.csv has non-finite values")
    if _override_value(w, "sampler") == "heuristic":
        return float(count * int(_override_value(w, "steps"))), facts, problems
    from phaselab.instance import bits_eps, round_R

    head, tail = x[:, : params.d], x[:, params.d :]
    bad = ~np.all(bits_eps(tail, params.eps) == f(round_R(head, params.R)), axis=1)
    if bad.any():
        problems.append(f"{int(bad.sum())} rows fail bits_eps(x_tail) == f(round_R(x_head))")
    return float(count), facts, problems
