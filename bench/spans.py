"""Spans and counters for the traced run, recorded from outside the package.

`install` replaces every public function of the traced phaselab modules with
a wrapper that records a span (name, start, end, parent) and, for some
layers, counts of work done. The wrapper goes wherever the function is bound:
its defining module, every module that bound it with `from ... import`, and
module-level dicts such as `cli.COMMANDS`. `uninstall` puts the originals
back, so untraced runs call the package unchanged.

Spans stay in memory until the run ends. A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from summary import tail_percentile

MODULES = ("circuits", "instance", "scores", "diffusion", "posterior", "reduction", "rng", "cli")

# Bindings made with `from ... import` that the wrappers must reach.
KNOWN_BINDINGS = (
    ("scores", "all_inputs"),
    ("posterior", "all_inputs"),
    ("reduction", "all_inputs"),
    ("posterior", "reverse_run"),
    ("posterior", "lattice_atoms"),
    ("scores", "lattice_atoms"),
    ("diffusion", "lattice_atoms"),
    ("reduction", "sample_discretized_gaussian"),
    ("cli", "sample_unconditional"),
)

INVERT_BF = "invert-bruteforce"
INVERT_H = "invert-heuristic"
POST_H = "posterior-heuristic"
ACCEPT = "acceptance-curve"
BULK = "posterior-bulk"
ALL = (INVERT_BF, INVERT_H, POST_H, ACCEPT, BULK)


def _group(names: str, dominant: tuple[str, ...]):
    """Expand 'layer.{a,b}' into metric rows (name, unit, better, dominant)."""
    layer, _, keys = names.partition(".{")
    rows = []
    for key in keys.rstrip("}").split(","):
        unit, better = {
            "self_s": ("s", "lower"),
            "p50_ms": ("ms", "lower"),
            "phigh_ms": ("ms", "lower"),
            "bytes": ("bytes", "lower"),
            "accepted": ("count", "higher"),
            "useful_frac": ("ratio", "higher"),
        }.get(key, ("count", "lower"))
        rows.append((f"{layer}.{key}", unit, better, dominant))
    return rows


# Every per-layer metric: (name, unit, better, workloads it dominates on).
LAYER_METRICS = tuple(
    _group("circuits.eval_circuit.{calls,rows,self_s}", (INVERT_BF, INVERT_H))
    + _group("circuits.all_inputs.{calls,self_s}", (INVERT_BF, INVERT_H))
    + _group("posterior.brute_force_posterior.{calls,draws,self_s}", (INVERT_BF,))
    + _group("posterior.seed_posterior_log_weights.{calls,self_s}", (INVERT_BF,))
    + _group("scores.mixture_score_exact.{calls,points,self_s}", (POST_H, INVERT_H))
    + _group("scores.dg_smoothed_log_density.{calls,points,self_s}", (POST_H, INVERT_H))
    + _group("scores.dg_smoothed_score.{calls,points,self_s}", (POST_H, INVERT_H))
    + _group("scores.provider_call.{calls,points,self_s}", (POST_H, INVERT_H))
    + _group("diffusion.reverse_run.{calls,chain_steps,self_s}", (INVERT_H,))
    + _group("instance.sample_unconditional.{calls,rows,self_s}", (ACCEPT,))
    + _group("instance.lattice_atoms.{calls,self_s}", (ACCEPT,))
    + _group("instance.sample_discretized_gaussian.{calls,self_s}", (ACCEPT,))
    + _group("posterior.rejection_sample.{calls,self_s}", (ACCEPT,))
    + _group("posterior.rejection.{proposals,rounds,accepted,useful_frac}", (ACCEPT,))
    + _group("reduction.inversion_experiment.{self_s}", (INVERT_BF,))
    + _group("reduction.invert.{calls,p50_ms,phigh_ms}", (INVERT_BF,))
    + _group("reduction.sample_measurement_for_target.{calls,self_s}", (INVERT_BF,))
    + [("reduction.success_frac", "ratio", "higher", (INVERT_BF,))]
    + _group("rng.stream.{calls,self_s}", (INVERT_BF,))
    + _group("cli.write_csv.{calls,rows,bytes,self_s}", (BULK,))
    + _group("cli.build_instance.{self_s}", (BULK,))
    + _group("cli.write_manifest.{self_s}", (BULK,))
    + [("trace.overhead_frac", "ratio", "lower", ALL)]
)


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index], plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        return i

    def finish(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, layer: str, key: str, value: float = 1) -> None:
        self.counts[(layer, key)] += value


def self_times(spans) -> list[int]:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# --- counters: work done at a layer boundary, from the call's arguments -------------


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _count_proposals(tracer: Tracer, args: dict) -> None:
    proposal = args["proposal"]

    def counted(n, rng):
        tracer.count("posterior.rejection", "proposals", n)
        return proposal(n, rng)

    args["proposal"] = counted


def _write_csv(t: Tracer, a: dict, result) -> None:
    t.count("cli.write_csv", "rows", len(a["rows"]))
    t.count("cli.write_csv", "bytes", Path(a["path"]).stat().st_size)


def _rejection(t: Tracer, a: dict, result) -> None:
    stats = result[1]
    t.count("posterior.rejection", "rounds", stats.rounds)
    t.count("posterior.rejection", "accepted", int(stats.accepted))


BEFORE = {"posterior.rejection_sample": _count_proposals}

AFTER = {
    "circuits.eval_circuit": lambda t, a, r: t.count("circuits.eval_circuit", "rows", _rows(a["x"])),
    "posterior.brute_force_posterior": lambda t, a, r: t.count(
        "posterior.brute_force_posterior", "draws", a.get("size") or 1
    ),
    "scores.mixture_score_exact": lambda t, a, r: t.count(
        "scores.mixture_score_exact", "points", _rows(a["x"])
    ),
    "scores.dg_smoothed_log_density": lambda t, a, r: t.count(
        "scores.dg_smoothed_log_density", "points", int(np.size(a["x"]))
    ),
    "scores.dg_smoothed_score": lambda t, a, r: t.count(
        "scores.dg_smoothed_score", "points", int(np.size(a["x"]))
    ),
    "scores.provider_call": lambda t, a, r: t.count("scores.provider_call", "points", _rows(a["x"])),
    "diffusion.reverse_run": lambda t, a, r: t.count(
        "diffusion.reverse_run", "chain_steps", a["cfg"].N * (a.get("size") or 1)
    ),
    "instance.sample_unconditional": lambda t, a, r: t.count(
        "instance.sample_unconditional", "rows", a.get("size") or 1
    ),
    "posterior.rejection_sample": _rejection,
    "cli.write_csv": _write_csv,
}


def _wrap(tracer: Tracer, name: str, fn):
    before, after = BEFORE.get(name), AFTER.get(name)
    sig = inspect.signature(fn) if (before or after) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = None
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            if before:
                before(tracer, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
        i = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(i)
        if after:
            after(tracer, bound.arguments, result)
        return result

    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap the traced modules' public functions everywhere they are bound.

    Returns the undo list for `uninstall`. Raises RuntimeError if a known
    `from ... import` binding was missed.
    """
    from phaselab.scores import ScoreProvider

    modules = {short: importlib.import_module(f"phaselab.{short}") for short in MODULES}
    wrapped = {}
    for short, mod in modules.items():
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped[id(fn)] = _wrap(tracer, f"{short}.{attr}", fn)
    undo = []
    loaded = [m for n, m in sys.modules.items() if n == "phaselab" or n.startswith("phaselab.")]
    for mod in loaded:
        ns = vars(mod)
        targets = [ns] + [v for v in ns.values() if type(v) is dict]
        for target in targets:
            for key, val in list(target.items()):
                if id(val) in wrapped:
                    target[key] = wrapped[id(val)]
                    undo.append((target, key, val))
    call = ScoreProvider.__call__
    ScoreProvider.__call__ = _wrap(tracer, "scores.provider_call", call)
    undo.append((ScoreProvider, "__call__", call))
    missed = [f"{m}.{a}" for m, a in KNOWN_BINDINGS if not hasattr(getattr(modules[m], a), "__wrapped__")]
    if missed:
        uninstall(undo)
        raise RuntimeError(f"wrappers did not reach {', '.join(missed)}")
    return undo


def uninstall(undo: list) -> None:
    for target, key, original in reversed(undo):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


def layer_totals(tracer: Tracer) -> dict:
    """Per span name: calls, total self seconds and each call's duration (s)."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for (name, start, end, _), own in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        self_s[name] += own * 1e-9
        durations[name].append((end - start) * 1e-9)
    return {"calls": calls, "self_s": self_s, "durations": durations, "counts": dict(tracer.counts)}


def per_layer_metrics(iterations: list[dict], successes: int, trials: int, overhead: float) -> dict:
    """Every LAYER_METRICS value for one CLI run of a workload.

    `iterations` holds one `layer_totals` dict per traced CLI run. Counts and
    self times are per CLI run, the median over the traced runs; invert
    latencies pool every call of every traced run.
    """
    invert = [d for it in iterations for d in it["durations"].get("reduction.invert", ())]
    out = {}
    for name, _, _, _ in LAYER_METRICS:
        if name == "trace.overhead_frac":
            out[name] = overhead
        elif name == "reduction.success_frac":
            out[name] = successes / trials if trials else 0.0
        elif name == "reduction.invert.p50_ms":
            out[name] = 1e3 * float(np.median(invert)) if invert else 0.0
        elif name == "reduction.invert.phigh_ms":
            out[name] = 1e3 * float(np.quantile(invert, tail_percentile(len(invert)) / 100)) if invert else 0.0
        else:
            layer, key = name.rsplit(".", 1)
            out[name] = float(np.median([_one(it, layer, key) for it in iterations]))
    return out


def _one(it: dict, layer: str, key: str) -> float:
    if key == "calls":
        return float(it["calls"].get(layer, 0))
    if key == "self_s":
        return it["self_s"].get(layer, 0.0)
    if key == "useful_frac":
        proposals = it["counts"].get((layer, "proposals"), 0)
        return it["counts"].get((layer, "rounds"), 0) / proposals if proposals else 0.0
    return float(it["counts"].get((layer, key), 0))
