"""Batch experiment driver.

Subcommands: sample, posterior, invert, approx-score, compile-circuit,
bench-acceptance, verify. Subcommands compute and `main` writes: only
a finished run writes its artifacts, then, last, its run_manifest.json (config
hash, seed, library versions, and the sha256 of every artifact it wrote).
Every artifact embeds the same config hash (a JSON field, or the first line of
a CSV or text file). `verify` checks the run in --out against its manifest
and ignores files the manifest does not list. Configs are flat
key=value files (an INI [run] section) or JSON objects; a bad key or value is
a `config error:` naming the field. Numeric CSV fields use 17 significant digits.
At d <= MAX_ENUM_D, `posterior` checks y against the exact seed posterior before any
sampler runs, and reports its draws' total variation from it as `seed_law_tv`.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import platform
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import rng as prng
from .circuits import MAX_ENUM_D, BooleanCircuit, candidate_from_text, no_output_candidate
from .circuits import sign_identity
from .diffusion import DEFAULT_STEPS, default_config
from .instance import DEFAULT_BETA, DEFAULT_EPS, DEFAULT_R, EPS_MAX, InstanceParams
from .instance import sample_unconditional
from .scores import PROVIDER_NAMES, ScoreProvider, provider_by_name

FMT = "%.17g"
CSV_BLOCK_ROWS = 4096  # rows converted and written at a time, which bounds peak memory
HASH_CHUNK_BYTES = 1 << 18  # bytes read at a time when an artifact is hashed
# Artifacts whose bytes hold wall-clock data; the manifest lists them without a digest.
RUN_DEPENDENT = frozenset({"invert_timing.json"})


# --- config plumbing ------------------------------------------------------------


def load_config(path: str | None) -> dict[str, str]:
    """Flat key=value dict from an INI [run] section or a JSON object."""
    if path is None:
        return {}
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("JSON config must be an object")
        return {str(k): str(v) for k, v in raw.items()}
    cp = configparser.ConfigParser()
    cp.read_string(text)
    if "run" not in cp:
        raise ValueError("INI config needs a [run] section")
    return dict(cp["run"])


def resolve(schema: dict, cfg: dict[str, str], overrides: list[str]) -> dict:
    """Validate keys against the schema and coerce values.

    schema maps key -> (type, default); default None marks a required key.
    Raises ValueError naming the key at fault.
    """
    merged = dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        k, v = item.split("=", 1)
        merged[k.strip()] = v.strip()
    unknown = sorted(set(merged) - set(schema))
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(unknown)}; known: {', '.join(sorted(schema))}"
        )
    out = {}
    for key, (typ, default) in schema.items():
        if key in merged:
            out[key] = _field(key, typ, merged[key])
        elif default is None:
            raise ValueError(f"field {key!r} is required")
        else:
            out[key] = default
    return out


def _field(name: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError or OSError reported against config field `name`."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OSError) as e:
        raise ValueError(f"field {name!r}: {e}") from None


def checked(typ, ok, rule: str):
    """Schema type: typ(text), rejected unless ok(value); rule says what ok requires."""

    def parse(text: str):
        value = typ(text)
        if not ok(value):
            raise ValueError(f"must be {rule}")
        return value

    return parse


def choice(*names: str):
    return checked(str, lambda v: v in names, "one of " + ", ".join(names))


positive_int = checked(int, lambda v: v >= 1, ">= 1")
non_negative_int = checked(int, lambda v: v >= 0, ">= 0")
positive_float = checked(float, lambda v: 0 < v < np.inf, "positive and finite")


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True, default=str).encode()).hexdigest()


def file_sha256(path: Path) -> str:
    """sha256 hex digest of a file, read in chunks so that no artifact is held in memory whole."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(HASH_CHUNK_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out: Path, subcommand: str, cfg_text: dict, h: str, seed: int, names) -> None:
    """run_manifest.json, written after the artifacts `names` in `out`, with each one's sha256.

    A RUN_DEPENDENT artifact is listed with a null digest, so that the manifest
    of a repeated run stays byte-identical.
    """
    manifest = {
        "subcommand": subcommand,
        "config": cfg_text,
        "config_hash": h,
        "seed": seed,
        "versions": {
            "phaselab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "artifacts": {
            name: None if name in RUN_DEPENDENT else file_sha256(out / name) for name in sorted(names)
        },
    }
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def write_csv(path: Path, header: list[str], rows, h: str) -> None:
    """The config-hash line, the header, then per row FMT for a float cell and str otherwise.

    Each block of CSV_BLOCK_ROWS rows is formatted by one `%` call. A float array's block
    takes its row format from its dtype; other rows take one per tuple of cell types.
    """
    formats: dict[tuple, str] = {}  # one row format per tuple of cell types

    def row_format(row) -> str:
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = ",".join(
                FMT if issubclass(t, (float, np.floating)) else "%s" for t in types
            ) + "\n"
        return formats[types]

    def block_text(block) -> str:
        # its cells and format string are freed on return, before the next block's are built
        if isinstance(block, np.ndarray) and block.dtype.kind == "f":
            row = ",".join([FMT] * block.shape[1]) + "\n"
            return (row * len(block)) % tuple(block.ravel().tolist())
        block = block.tolist() if isinstance(block, np.ndarray) else block
        return "".join(map(row_format, block)) % tuple(cell for row in block for cell in row)

    with path.open("w") as fh:
        fh.write(f"# config-hash: {h}\n{','.join(header)}\n")
        for i in range(0, len(rows), CSV_BLOCK_ROWS):
            fh.write(block_text(rows[i : i + CSV_BLOCK_ROWS]))


def write_json(path: Path, obj: dict, h: str) -> None:
    path.write_text(json.dumps({"config_hash": h, **obj}, indent=2) + "\n")


# --- shared pieces ----------------------------------------------------------------


def instance_schema() -> dict:
    return {
        "d": (int, 8),
        "d_prime": (int, 8),
        "R": (float, DEFAULT_R),
        "eps": (float, DEFAULT_EPS),
        "beta": (float, DEFAULT_BETA),
        "circuit": (str, "identity"),
    }


def build_instance(cfg: dict) -> tuple[InstanceParams, BooleanCircuit]:
    params = InstanceParams(cfg["d"], cfg["d_prime"], cfg["R"], cfg["eps"], cfg["beta"])
    return params, _field("circuit", _candidate, cfg["circuit"], params)


def _candidate(spec: str, params: InstanceParams) -> BooleanCircuit:
    if spec == "identity":
        if params.d_prime == 0:
            return no_output_candidate(params.d)
        if params.d != params.d_prime:
            raise ValueError("'identity' needs d = d_prime")
        return sign_identity(params.d)
    if spec.startswith("random:"):
        from .reduction import random_circuit_owf

        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("expected 'random:<gates>:<seed>'")
        return random_circuit_owf(params.d, params.d_prime, int(parts[1]), int(parts[2]))
    f = candidate_from_text(Path(spec).read_text())
    if f.n_inputs != params.d or f.n_outputs != params.d_prime:
        raise ValueError("circuit file arity does not match d, d_prime")
    return f


def build_provider(name: str, params: InstanceParams, f: BooleanCircuit) -> ScoreProvider:
    """provider_by_name, its seed-enumeration limit reported as field 'd' (the schema checked
    the name)."""
    return _field("d", provider_by_name, name, params, f)


def build_sampler(cfg: dict, params: InstanceParams, f: BooleanCircuit):
    """The sampler that cfg["sampler"] names, in reduction.invert's form sampler(m, rng, size)
    -> (x, info): the one place where `posterior` and `invert` choose one."""
    from .reduction import make_brute_force_sampler, make_heuristic_sampler, make_rejection_sampler

    if params.beta <= 0:  # every sampler conditions on y = Ax + beta * noise
        raise ValueError("field 'beta': beta must be positive")
    if cfg["sampler"] == "rejection":
        return make_rejection_sampler(params, f, cfg["max_rounds"])
    if cfg["sampler"] == "brute-force":
        return _field("d", make_brute_force_sampler, params, f)
    # invert has neither key: exact, DEFAULT_STEPS
    provider, steps = cfg.get("provider", "exact"), cfg.get("steps", DEFAULT_STEPS)
    return _field("d", make_heuristic_sampler, params, f, provider, steps)


def run_chain(field: str, cfg: dict, run, *args, **kwargs):
    """run(*args, **kwargs), which runs reverse chains; a non-finite score is reported against
    config field `field`: 'steps' (a coarse grid diverges), or 'sampler' if the length is fixed."""
    try:
        return run(*args, **kwargs)
    except FloatingPointError as e:
        hint = "more steps may help" if field == "steps" else "sampler=brute-force is exact"
        raise ValueError(
            f"field {field!r}: the reverse chain diverged at {field}={cfg[field]} ({e}); {hint}"
        ) from None


# --- subcommands: each returns ({artifact name: body}, message) -----------------------


def cmd_sample(cfg: dict, args) -> tuple[dict, str]:
    params, f = build_instance(cfg)
    rng = prng.stream(args.seed, 0)
    if cfg["method"] == "direct":
        _, x = sample_unconditional(params, f, rng, size=cfg["count"])
    else:
        from .diffusion import reverse_run

        provider = build_provider(cfg["provider"], params, f)
        dcfg = default_config(params, N=cfg["steps"])
        x = run_chain(
            "steps", cfg, reverse_run, provider, dcfg, rng, dim=params.dim, size=cfg["count"]
        )
    message = f"wrote {cfg['count']} samples to {Path(args.out) / 'samples.csv'}"
    return {"samples.csv": ([f"x{j}" for j in range(params.dim)], x)}, message


def cmd_posterior(cfg: dict, args) -> tuple[dict, str]:
    from .posterior import Measurement, seed_law_tv
    from .reduction import sample_measurement_for_target

    params, f = build_instance(cfg)
    sampler = build_sampler(cfg, params, f)
    rng = prng.stream(args.seed, 0)
    if cfg["y"] == "fresh":
        s = prng.signs(rng, params.d)
        y = sample_measurement_for_target(f(s)[None], params, [rng])[0]
    else:
        y = _field("y", _measurement, cfg["y"], params.d_prime)
    m = Measurement(params, f, y)
    exact = params.d <= MAX_ENUM_D  # the seed posterior is enumerable: a y it rules out fails here
    if exact:
        _field("y", lambda: m.log_weights)
    x, stats = run_chain("steps", cfg, sampler, m, rng, cfg["count"])
    info: dict = {"y": [float(v) for v in y], "sampler": cfg["sampler"], **stats}
    lines = []
    if len(x) < cfg["count"]:  # only the rejection sampler runs out
        lines.append(f"rejection budget exhausted after {stats['proposals']} proposals: "
                     f"accepted {len(x)} of {cfg['count']} requested samples")
    info["seed_law_tv"] = seed_law_tv(m, x) if exact else None
    lines.append(f"wrote {len(x)} posterior samples to {Path(args.out) / 'posterior.csv'}")
    table = ([f"x{j}" for j in range(params.dim)], x)
    return {"posterior.csv": table, "posterior_stats.json": info}, "\n".join(lines)


def _measurement(text: str, d_prime: int) -> np.ndarray:
    y = np.array([float(v) for v in text.split(",")])
    if y.size != d_prime or not np.all(np.isfinite(y)):
        raise ValueError(f"must be 'fresh' or {d_prime} finite comma-separated values")
    return y


def cmd_invert(cfg: dict, args) -> tuple[dict, str]:
    from .reduction import inversion_experiment

    params, f = build_instance(cfg)
    sampler = build_sampler(cfg, params, f)
    trials = cfg["trials"]
    rep = run_chain("sampler", cfg, inversion_experiment, f, sampler, trials, params, args.seed)
    row = {
        "trials": rep.trials,
        "successes": rep.successes,
        "success_rate": rep.successes / rep.trials,
        "exact_seed_hits": rep.exact_seed_hits,
        "bits_match_count": rep.bits_match_count,
        "no_guess_count": rep.no_guess_count,
    }
    artifacts = {
        "invert_report.json": row,
        "invert_report.csv": (list(row), [list(row.values())]),
        # wall time is inherently run-dependent, so it lives outside the
        # seed-deterministic report artifact
        "invert_timing.json": {"mean_sampler_nanos": rep.mean_sampler_nanos},
    }
    return artifacts, f"success rate {row['success_rate']:.3f} over {rep.trials} trials"


def cmd_approx_score(cfg: dict, args) -> tuple[dict, str]:
    from .piecewise import ApproxParams, build_score_approx, measure_l2_error, score_family
    from .relu import compile_piecewise, eval_net, network_to_text, report

    score, sampler, m2 = _field("family", score_family, cfg["family"], cfg["sigma"])
    ap = _field("kappa", ApproxParams, cfg["kappa"], cfg["sigma"], m2)
    l = _field("sigma", build_score_approx, score, ap)
    net = compile_piecewise(l)
    rng = prng.stream(args.seed, 0)
    l2 = measure_l2_error(l, score, sampler, cfg["mc_draws"], rng)
    grid = np.linspace(l.breakpoints[0] - 1, l.breakpoints[-1] + 1, 10_001)
    net_err = float(np.max(np.abs(eval_net(net, grid[:, None])[:, 0] - l(grid))))
    rep = report(net)
    scaled = l2 * cfg["sigma"] ** 2 / cfg["kappa"]
    header = ["family", "sigma", "kappa", "pieces", "l2_error", "scaled_l2", "net_sup_error",
              "param_count", "max_abs_weight"]
    rows = [[
        cfg["family"], cfg["sigma"], cfg["kappa"], l.piece_count, l2, scaled, net_err,
        rep.param_count, rep.max_abs_weight,
    ]]
    artifacts = {
        "score_approx.csv": l.to_csv(),
        "score_net.txt": network_to_text(net),
        "error_table.csv": (header, rows),
    }
    return artifacts, f"pieces={l.piece_count} l2={l2:.3e} scaled={scaled:.3f}"


def cmd_compile_circuit(cfg: dict, args) -> tuple[dict, str]:
    from .relu import circuit_to_relu, network_to_text, report

    f = _field("circuit", lambda: candidate_from_text(Path(cfg["circuit"]).read_text()))
    net = circuit_to_relu(f)
    rep = report(net)
    artifacts = {"circuit_net.txt": network_to_text(net), "param_report.json": asdict(rep)}
    message = f"compiled {f.label or 'circuit'}: {rep.param_count} params, depth {rep.depth}"
    return artifacts, message


def cmd_bench_acceptance(cfg: dict, args) -> tuple[dict, str]:
    from .posterior import acceptance_curve

    betas = _field("betas", lambda: [positive_float(v) for v in cfg["betas"].split(",")])
    ms = _field("ms", lambda: [non_negative_int(v) for v in cfg["ms"].split(",")])
    rows = acceptance_curve(
        betas, ms, cfg["trials"], args.seed, eps=cfg["eps"], max_rounds=cfg["max_rounds"]
    )
    header = ["beta", "m", "mean_rounds", "log_mean_rounds", "trials", "censored"]
    table = (header, [[r[k] for k in header] for r in rows])
    message = f"wrote {len(rows)} rows to {Path(args.out) / 'acceptance.csv'}"
    return {"acceptance.csv": table}, message


# --- verify -----------------------------------------------------------------------


def require(ok: bool, message: str) -> None:
    """AssertionError(message) unless ok; unlike `assert`, it also runs under `python -O`."""
    if not ok:
        raise AssertionError(message)


def check_run(out: Path) -> None:
    """Check the run in `out` against its manifest; raises AssertionError naming the file at fault.

    Files the manifest does not list are not this run's, and are ignored.
    """
    mf = out / "run_manifest.json"
    require(mf.is_file(), f"no run_manifest.json in {out}")
    try:
        data = json.loads(mf.read_text())
        h, cfg, artifacts = data["config_hash"], data["config"], dict(data["artifacts"])
    except (ValueError, KeyError, TypeError) as e:  # JSONDecodeError is a ValueError
        raise AssertionError(f"run_manifest.json: {type(e).__name__}: {e}") from None
    require(config_hash(cfg) == h, "run_manifest.json: config_hash does not match its config")
    for name, digest in sorted(artifacts.items()):
        path = out / name
        require(path.is_file(), f"{name}: listed in the manifest but missing")
        if digest is None:  # run-dependent bytes: only the hash field can be checked
            got = json.loads(path.read_text()).get("config_hash")
            require(got == h, f"{name}: config_hash {got!r} is not the manifest's")
        else:
            got = file_sha256(path)
            require(got == digest, f"{name}: sha256 {got} is not the manifest's {digest}")


def cmd_verify(args) -> int:
    """Check the run in --out against its manifest; writes nothing, returns the exit code."""
    try:
        check_run(Path(args.out))
        ok, msg = True, ""
    except Exception as e:  # noqa: BLE001 - verify reports, never crashes
        ok, msg = False, f"{type(e).__name__}: {e}"
    print(f"artifact-hashes  {'PASS' if ok else 'FAIL'}  {msg}")
    print(f"{int(ok)}/1 checks passed")
    return 0 if ok else 1


# --- entry point ------------------------------------------------------------------

# The name -> function table; SCHEMAS below holds each subcommand's config keys.
COMMANDS = {
    "sample": cmd_sample,
    "posterior": cmd_posterior,
    "invert": cmd_invert,
    "approx-score": cmd_approx_score,
    "compile-circuit": cmd_compile_circuit,
    "bench-acceptance": cmd_bench_acceptance,
    "verify": cmd_verify,
}

SAMPLER_NAMES = ("rejection", "brute-force", "heuristic")  # the names build_sampler knows
SAMPLERS = choice(*SAMPLER_NAMES)
DIFFUSION_KEYS = {
    "provider": (choice(*PROVIDER_NAMES), "exact"),
    "steps": (non_negative_int, DEFAULT_STEPS),
}
SCHEMAS = {
    "sample": instance_schema() | {
        "count": (positive_int, 1000),
        "method": (choice("direct", "diffusion"), "direct"),
    } | DIFFUSION_KEYS,
    "posterior": instance_schema() | {
        "sampler": (SAMPLERS, "rejection"),
        "count": (positive_int, 1000),
        "max_rounds": (positive_int, 10**6),
    } | DIFFUSION_KEYS | {"y": (str, "fresh")},
    "invert": instance_schema() | {
        "sampler": (SAMPLERS, "brute-force"),
        "trials": (positive_int, 200),
        "max_rounds": (positive_int, 10**6),
    },
    "approx-score": {
        "family": (str, "two_point"),
        "sigma": (positive_float, 1.0),
        "kappa": (float, 0.04),
        "mc_draws": (positive_int, 200_000),
    },
    "compile-circuit": {"circuit": (str, None)},
    "bench-acceptance": {
        "betas": (str, "0.1,0.2"),
        "ms": (str, "0,1,2,3,4"),
        "trials": (positive_int, 50),
        "eps": (checked(float, lambda v: 0 < v <= EPS_MAX, f"in (0, {EPS_MAX:g}]"), DEFAULT_EPS),
        "max_rounds": (positive_int, 10**7),
    },
    "verify": {},
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main call (not at import) and then reused."""
    parser = argparse.ArgumentParser(prog="phaselab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI ([run] section) or JSON config file")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--jobs", type=int, default=1, help="no effect; kept for old scripts, >= 1")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("overrides", nargs="*", help="key=value config overrides")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Resolve, run, then write; any bad value, file or config before that is a `config error:`."""
    args = _parser().parse_args(argv)
    name = args.subcommand
    try:
        if args.jobs < 1:
            raise ValueError("field 'jobs': --jobs must be >= 1")
        if args.seed < 0:
            raise ValueError("field 'seed': must be >= 0")
        cfg = resolve(SCHEMAS[name], load_config(args.config), args.overrides)
        if name == "verify":
            return cmd_verify(args)
        artifacts, message = COMMANDS[name](cfg, args)
    except (ValueError, OSError, configparser.Error) as e:
        raise SystemExit(f"config error: {e}") from None
    out = Path(args.out)
    cfg_text = {k: str(v) for k, v in cfg.items()}
    h = config_hash(cfg_text)
    out.mkdir(parents=True, exist_ok=True)
    for filename, body in artifacts.items():
        if isinstance(body, tuple):  # (header, rows)
            write_csv(out / filename, *body, h)
        elif isinstance(body, dict):
            write_json(out / filename, body, h)
        else:  # text, under the config-hash line
            (out / filename).write_text(f"# config-hash: {h}\n" + body)
    write_manifest(out, name, cfg_text, h, args.seed, artifacts)
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
