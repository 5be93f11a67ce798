"""Batch experiment driver.

Subcommands: sample, posterior, invert, approx-score, compile-circuit,
bench-acceptance, demo2d, verify. Subcommands compute and `main` writes: only
a finished run writes its artifacts, then, last, its run_manifest.json (config
hash, seed, library versions, and the sha256 of every artifact it wrote).
Every artifact embeds the same config hash (a JSON field, or the first line of
a CSV or text file). `verify` checks the run in --out against its manifest
and ignores files the manifest does not list. Configs are flat
key=value files (an INI [run] section) or JSON objects; a bad key or value is
a `config error:` naming the field. Numeric CSV fields use 17 significant digits.
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
from .circuits import BooleanCircuit, candidate_from_text, no_output_candidate, sign_identity
from .instance import DEFAULT_BETA, DEFAULT_EPS, DEFAULT_R, EPS_MAX, InstanceParams
from .instance import measurement_matrix, sample_unconditional
from .scores import ScoreProvider, provider_by_name

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
    """The config-hash line, the header, then per row FMT for a float cell and str otherwise."""
    formats: dict[tuple, str] = {}  # one row format per tuple of cell types

    def line(row) -> str:
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = ",".join(
                FMT if issubclass(t, (float, np.floating)) else "%s" for t in types
            )
        return formats[types] % tuple(row)

    with path.open("w") as fh:
        fh.write(f"# config-hash: {h}\n{','.join(header)}\n")
        for i in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[i : i + CSV_BLOCK_ROWS]
            block = block.tolist() if isinstance(block, np.ndarray) else block
            fh.write("\n".join(map(line, block)) + "\n")


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


def enumerable(f: BooleanCircuit) -> BooleanCircuit:
    """f, its seed table built now, so that the enumeration limit is reported as field 'd'."""
    _field("d", lambda: f.seed_table)
    return f


def build_provider(name: str, params: InstanceParams, f: BooleanCircuit) -> ScoreProvider:
    provider = _field("provider", provider_by_name, name, params, f)
    if name == "exact":
        enumerable(f)
    return provider


def diffusion_config(cfg: dict, params: InstanceParams):
    from .diffusion import default_config

    return _field("t_min", default_config, params, N=cfg["steps"], t_min=cfg["t_min"])


def run_chain(steps: int, run, *args, **kwargs):
    """run(*args, **kwargs), a reverse chain of `steps` steps; a chain whose score turned
    non-finite is reported against field 'steps', as a coarse step grid makes it diverge."""
    try:
        return run(*args, **kwargs)
    except FloatingPointError as e:
        raise ValueError(
            f"field 'steps': the reverse chain diverged at steps={steps} ({e}); "
            "more steps may help"
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
        dcfg = diffusion_config(cfg, params)
        x = run_chain(
            cfg["steps"], reverse_run, provider, dcfg, rng, dim=params.dim, size=cfg["count"]
        )
    message = f"wrote {cfg['count']} samples to {Path(args.out) / 'samples.csv'}"
    return {"samples.csv": ([f"x{j}" for j in range(params.dim)], x)}, message


def cmd_posterior(cfg: dict, args) -> tuple[dict, str]:
    from .posterior import PosteriorConfig, brute_force_posterior
    from .posterior import heuristic_posterior_sample, rejection_sample

    params, f = build_instance(cfg)
    pcfg = _field("beta", PosteriorConfig, cfg["max_rounds"], params.beta)
    rng = prng.stream(args.seed, 0)
    if cfg["y"] == "fresh":
        from .reduction import sample_measurement_for_target

        s = prng.signs(rng, params.d)
        y = sample_measurement_for_target(f(s), params, rng)
    else:
        y = _field("y", _measurement, cfg["y"], params.d_prime)
    A = measurement_matrix(params)
    info: dict = {"y": [float(v) for v in y], "sampler": cfg["sampler"]}
    lines = []
    if cfg["sampler"] == "rejection":
        proposal = lambda n, r: sample_unconditional(params, f, r, size=n)[1]
        x, stats = rejection_sample(proposal, A, y, pcfg, rng, size=cfg["count"])
        rate = stats.rounds / len(x) if len(x) else None
        info.update(proposals=stats.rounds, accepted=len(x), rounds_per_accept=rate)
        lines += shortfall(stats, len(x), cfg["count"])
    elif cfg["sampler"] == "brute-force":
        x = _field("y", brute_force_posterior, params, enumerable(f), y, rng, size=cfg["count"])
    else:
        provider = build_provider(cfg["provider"], params, f)
        dcfg = diffusion_config(cfg, params)
        x = run_chain(
            cfg["steps"], heuristic_posterior_sample, provider, A, y, params.beta, dcfg, rng,
            size=cfg["count"],
        )
    lines.append(f"wrote {len(x)} posterior samples to {Path(args.out) / 'posterior.csv'}")
    table = ([f"x{j}" for j in range(params.dim)], x)
    return {"posterior.csv": table, "posterior_stats.json": info}, "\n".join(lines)


def shortfall(stats, got: int, wanted: int) -> list[str]:
    """The message line of a rejection run whose budget ran out, if it did."""
    why = f"rejection budget exhausted after {stats.rounds} proposals"
    return [] if stats.accepted else [f"{why}: accepted {got} of {wanted} requested samples"]


def _measurement(text: str, d_prime: int) -> np.ndarray:
    y = np.array([float(v) for v in text.split(",")])
    if y.size != d_prime or not np.all(np.isfinite(y)):
        raise ValueError(f"must be 'fresh' or {d_prime} finite comma-separated values")
    return y


def cmd_invert(cfg: dict, args) -> tuple[dict, str]:
    from .posterior import PosteriorConfig
    from .reduction import inversion_experiment, make_brute_force_sampler
    from .reduction import make_heuristic_sampler, make_rejection_sampler

    params, f = build_instance(cfg)
    _field("beta", PosteriorConfig, cfg["max_rounds"], params.beta)  # every sampler needs beta > 0
    if cfg["sampler"] == "brute-force":
        sampler = make_brute_force_sampler(params, enumerable(f))
    elif cfg["sampler"] == "rejection":
        sampler = make_rejection_sampler(params, f, cfg["max_rounds"])
    else:
        sampler = make_heuristic_sampler(params, enumerable(f))
    rep = inversion_experiment(f, sampler, cfg["trials"], params, args.seed)
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
        betas, ms, cfg["trials"], args.seed, R=cfg["R"], eps=cfg["eps"],
        max_rounds=cfg["max_rounds"],
    )
    header = ["beta", "m", "mean_rounds", "log_mean_rounds", "trials", "censored"]
    table = (header, [[r[k] for k in header] for r in rows])
    message = f"wrote {len(rows)} rows to {Path(args.out) / 'acceptance.csv'}"
    return {"acceptance.csv": table}, message


# --- the 2-D demo -----------------------------------------------------------------

DEMO_MEANS = np.array([[0.0, 0.0], [4.0, 4.0]])
DEMO_VAR = 0.4
DEMO_BETA = 0.9
DEMO_Y_MAX = 1e6  # at |y| ~ 1e20 the weights lose all precision; ~1e160 overflows


def demo_prior_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    pick = rng.integers(0, 2, size=n)
    return DEMO_MEANS[pick] + np.sqrt(DEMO_VAR) * rng.standard_normal((n, 2))


def demo_bayes_weight(y: float) -> float:
    """Posterior probability of the (4,4) component given y = x2 + N(0, 0.81)."""
    var = DEMO_VAR + DEMO_BETA**2
    ll = -((y - DEMO_MEANS[:, 1]) ** 2) / (2 * var)
    w = np.exp(ll - ll.max())
    return float(w[1] / w.sum())


def demo_oracle_posterior(y: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Exact two-component Bayes posterior draws given y."""
    w1 = demo_bayes_weight(y)
    pick = (rng.random(n) < w1).astype(int)
    mu = DEMO_MEANS[pick]
    post_var = 1.0 / (1.0 / DEMO_VAR + 1.0 / DEMO_BETA**2)
    post_mean2 = post_var * (mu[:, 1] / DEMO_VAR + y / DEMO_BETA**2)
    x = np.empty((n, 2))
    x[:, 0] = mu[:, 0] + np.sqrt(DEMO_VAR) * rng.standard_normal(n)
    x[:, 1] = post_mean2 + np.sqrt(post_var) * rng.standard_normal(n)
    return x


def demo_score_provider() -> ScoreProvider:
    def score(sigma, x):
        var = DEMO_VAR + sigma**2
        ll = -np.sum((x[:, None, :] - DEMO_MEANS) ** 2, axis=2) / (2 * var)
        w = np.exp(ll - ll.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        return (w @ DEMO_MEANS - x) / var

    return ScoreProvider("demo2d", score)


def cmd_demo2d(cfg: dict, args) -> tuple[dict, str]:
    from .diffusion import DiffusionConfig
    from .posterior import PosteriorConfig, heuristic_posterior_sample, rejection_sample

    n, yval = cfg["count"], cfg["y"]
    y = np.array([yval])
    A = np.array([[0.0, 1.0]])
    cols = ["x1", "x2"]

    prior = demo_prior_sample(prng.stream(args.seed, 0), n)
    pcfg = PosteriorConfig(cfg["max_rounds"], DEMO_BETA)
    rej, stats = rejection_sample(
        lambda k, r: demo_prior_sample(r, k), A, y, pcfg, prng.stream(args.seed, 1), size=n
    )
    oracle = demo_oracle_posterior(yval, prng.stream(args.seed, 2), n)
    dcfg = DiffusionConfig(T=10 * (DEMO_VAR + 8.0), t_min=1e-4, N=cfg["steps"])
    heur = heuristic_posterior_sample(
        demo_score_provider(), A, y, DEMO_BETA, dcfg, prng.stream(args.seed, 3), size=n
    )

    def upper_weight(x):  # None for an empty sample (no draw accepted)
        d = np.sum((x[:, None, :] - DEMO_MEANS) ** 2, axis=2)
        return float(np.mean(d[:, 1] < d[:, 0])) if len(x) else None

    weights = {
        "y": yval,
        "bayes_weight_upper": demo_bayes_weight(yval),
        "rejection_weight_upper": upper_weight(rej),
        "oracle_weight_upper": upper_weight(oracle),
        "heuristic_weight_upper": upper_weight(heur),
    }
    artifacts = {
        "prior.csv": (cols, prior),
        "posterior_rejection.csv": (cols, rej),
        "posterior_oracle.csv": (cols, oracle),
        "posterior_heuristic.csv": (cols, heur),
        "component_weights.json": weights,
    }
    return artifacts, "\n".join(shortfall(stats, len(rej), n) + [json.dumps(weights, indent=2)])


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
    "demo2d": cmd_demo2d,
    "verify": cmd_verify,
}

SAMPLERS = choice("rejection", "brute-force", "heuristic")
DIFFUSION_KEYS = {
    "provider": (str, "exact"),
    "steps": (non_negative_int, 2000),
    "t_min": (float, 1e-4),
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
        "R": (positive_float, DEFAULT_R),
        "eps": (checked(float, lambda v: 0 < v <= EPS_MAX, f"in (0, {EPS_MAX:g}]"), DEFAULT_EPS),
        "max_rounds": (positive_int, 10**7),
    },
    "demo2d": {
        "count": (positive_int, 2000),
        "steps": (non_negative_int, 1500),
        "y": (checked(float, lambda v: abs(v) <= DEMO_Y_MAX, "finite with |y| <= 1e6"), 4.0),
        "max_rounds": (positive_int, 10**6),
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
