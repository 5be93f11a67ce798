"""The phaselab benchmark.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

One client drives `phaselab.cli.main(argv)` in a closed loop: each CLI run
starts when the previous one has finished, always with the same argv, so every
repeat must write byte-identical artifacts. The last stdout line is one JSON
object with keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  setup_s       median over fresh interpreters of `import phaselab.cli` plus
                the workload's pre-sampling calls (bench/probe.py setup). The
                probes take SETUP_SHARE of the measured time, run between the
                loop's CLI runs, so that they sample the whole run
  peak_rss_mb   peak RSS of a fresh interpreter that runs the CLI once
  work_per_ref  median over the loop's CLI runs of work units per second,
                divided by the rate of the reference kernel timed right before
                and after that run (bench/reference.py). The unit of work is
                the workload's: trials, chain steps or rows. The throughput in
                plain units per second is printed too, without a bound.
--trace 1 reports the per-layer metrics of bench/spans.py. It alternates
untraced and traced CLI runs; the traced runs' artifacts must equal the
untraced ones byte for byte, and trace.overhead_frac is the median traced
wall time over the median untraced wall time, minus 1.

`--record` prints the machine and environment instead of running anything.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import spans
from summary import summarize
from workloads import WORKLOADS, Workload, check_outputs, digests, presample

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up probes take this share of the measured time; a run makes at least
# SETUP_MIN_PROBES of them. One probe takes about half a second.
SETUP_SHARE = 0.35
SETUP_MIN_PROBES = 12
PROBE_TIMEOUT_S = 60  # the probe gives its own child 50 s
# The reference kernel runs after each CLI run for this share of its wall time.
REF_SHARE = 0.15
REF_MIN_S = 0.05

E2E = (("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"), ("work_per_ref", "1/ref", "higher"))


class Ops:
    """Operations attempted and failed, with the first few failure reasons.

    `broken` holds problems of the run as a whole, which make it incorrect
    without being a failed operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.broken: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append("; ".join(problems))
        return not problems


def import_phaselab():
    if not (SRC / "phaselab" / "cli.py").is_file():
        raise SystemExit(f"error: no phaselab sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from phaselab import cli

    if Path(cli.__file__).resolve().parent != SRC / "phaselab":
        raise SystemExit(f"error: imported phaselab from {cli.__file__}, not {SRC}")
    return cli


def run_cli(cli, argv: list[str], out: Path) -> tuple[float, list[str]]:
    """One CLI run into a fresh `out`; returns (wall seconds, problems)."""
    shutil.rmtree(out, ignore_errors=True)
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except (Exception, SystemExit) as e:  # a failed run is a failed operation
        return time.perf_counter() - t0, [f"cli raised {type(e).__name__}: {e}"]
    wall = time.perf_counter() - t0
    return wall, [] if code == 0 else [f"cli exited {code}"]


class Checker:
    """Output checks plus byte equality with the first run's artifacts."""

    def __init__(self, cli, w: Workload):
        self.cli, self.w = cli, w
        self.reference: dict[str, str] | None = None

    def __call__(self, out: Path, problems: list[str]) -> tuple[float, dict, list[str]]:
        if problems:
            return 0.0, {}, problems
        try:
            work, facts, problems = check_outputs(self.cli, self.w, out)
            got = digests(out)
        except (OSError, ValueError, KeyError, IndexError) as e:
            return 0.0, {}, [f"unreadable artifacts: {type(e).__name__}: {e}"]
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            diff = sorted(k for k in set(got) | set(self.reference) if got.get(k) != self.reference.get(k))
            problems = problems + [f"artifacts differ from the first run: {', '.join(diff)}"]
        return work, facts, problems


def probe(mode: str, w: Workload, seed: int, out: Path) -> tuple[dict, list[str]]:
    """Run bench/probe.py in a fresh interpreter and read its JSON line."""
    cmd = [sys.executable, str(BENCH / "probe.py"), mode, w.name, str(seed), str(out)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {}, [f"{mode} probe timed out"]
    if p.returncode != 0:
        tail = p.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {}, [f"{mode} probe exited {p.returncode}: {tail[0]}"]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if result.get("code", 0) != 0:
        return result, [f"{mode} probe: cli exited {result['code']}"]
    return result, []


def measure_untraced(cli, w: Workload, seed: int, seconds: float, work: Path, ops: Ops) -> dict:
    check = Checker(cli, w)
    setup, per_ref, per_s, rounds = [], [], [], []

    def probe_setup() -> float:
        t0 = time.perf_counter()
        got, problems = probe("setup", w, seed, work / "probe")
        if ops.record(problems):
            setup.append(got["setup_s"])
        return time.perf_counter() - t0

    # the memory probe's artifacts are the ones every later run must match;
    # building the sampler here warms the imports the CLI makes lazily
    got, problems = probe("run", w, seed, work / "probe")
    rss = [got["peak_rss_mb"]] if ops.record(check(work / "probe", problems)[2]) else []
    presample(cli, w, seed)
    out = work / "run"
    probe_s = loop_s = 0.0
    ref_before = reference.rate(REF_MIN_S)
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        wall, problems = run_cli(cli, w.argv(seed, out), out)
        ref_after = reference.rate(max(REF_MIN_S, REF_SHARE * wall))
        units, facts, problems = check(out, problems)
        if ops.record(problems):
            per_s.append(units / wall)
            per_ref.append(units / wall / (0.5 * (ref_before + ref_after)))
            if "rounds" in facts:
                rounds.append(facts["rounds"] / wall)
        ref_before = ref_after
        loop_s += time.perf_counter() - t0
        probe_due = SETUP_SHARE / (1.0 - SETUP_SHARE) * loop_s
        if probe_s < probe_due:
            while probe_s < probe_due:
                probe_s += probe_setup()
            ref_before = reference.rate(REF_MIN_S)
        if time.perf_counter() >= t_end:
            break
    for _ in range(SETUP_MIN_PROBES - len(setup)):
        probe_setup()
    return {"setup_s": setup, "peak_rss_mb": rss, "work_per_ref": per_ref, "per_s": per_s, "rounds_per_s": rounds}


def measure_traced(cli, w: Workload, seed: int, seconds: float, work: Path, ops: Ops) -> dict:
    check = Checker(cli, w)
    out = work / "run"
    _, problems = run_cli(cli, w.argv(seed, out), out)
    ops.record(check(out, problems)[2])
    plain, traced, totals = [], [], []
    successes = trials = 0
    t_end = time.perf_counter() + seconds
    while True:
        wall, problems = run_cli(cli, w.argv(seed, out), out)
        if ops.record(check(out, problems)[2]):
            plain.append(wall)
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            wall, problems = run_cli(cli, w.argv(seed, out), out)
        finally:
            spans.uninstall(undo)
        _, facts, problems = check(out, problems)
        if ops.record(problems):
            traced.append(wall)
            totals.append(spans.layer_totals(tracer))
            successes += facts.get("successes", 0)
            trials += facts.get("trials", 0)
        if time.perf_counter() >= t_end:
            break
    if not (plain and traced):
        return {}
    overhead = float(np.median(traced) / np.median(plain)) - 1.0
    counts = [(t["calls"], t["counts"]) for t in totals]
    if any(c != counts[0] for c in counts):
        ops.broken.append("per-layer counts differ between traced runs of the same argv")
    return spans.per_layer_metrics(totals, successes, trials, overhead)


def show(label: str, s: dict) -> None:
    print(f"{label:<46} median {s['median']:<12.6g} p{s['tail_p']:g} {s['tail']:<12.6g} n={s['n']}")


def run_workload(cli, w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ops = Ops()
    print(f"# workload {w.name}: phaselab {' '.join(w.argv(seed, '<out>'))}", flush=True)
    if trace:
        values = measure_traced(cli, w, seed, seconds, work, ops)
        metrics = {}
        for name, unit, _, dominant in spans.LAYER_METRICS:
            v = values.get(name, 0.0)
            metrics[name] = {"value": v, "unit": unit}
            if w.name in dominant and v == 0:
                ops.broken.append(f"self-check: {name} is zero on a workload it dominates")
            print(f"{name:<44} {v:>14.6g} {unit}")
    else:
        samples = measure_untraced(cli, w, seed, seconds, work, ops)
        metrics = {}
        shown = {"work_per_ref": f"{w.unit}_per_ref ({w.unit}/ref)"}
        for name, unit, better in E2E:
            if samples[name]:
                show(shown.get(name, f"{name} ({unit})"), summarize(samples[name], better))
                metrics[name] = {"value": float(np.median(samples[name])), "unit": unit}
        for name, label in (("per_s", f"{w.unit}_per_s ({w.unit}/s, no bound)"),
                            ("rounds_per_s", "rounds_per_s (rounds/s, no bound)")):
            if samples[name]:
                show(label, summarize(samples[name], "higher"))
        if len(metrics) < len(E2E):
            ops.broken.append("a metric has no samples")
    for reason in ops.reasons + ops.broken:
        print(f"# failed: {reason}", file=sys.stderr)
    correct = ops.failed == 0 and not ops.broken
    print(f"# attempted {ops.attempted} failed {ops.failed}")
    return {"correct": correct, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}


def record() -> dict:
    """The machine and environment this benchmark runs on."""
    import platform

    import numpy
    import scipy

    cpu = {"nproc": os.cpu_count()}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu["model"] = line.split(":", 1)[1].strip()
                break
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(caches.glob("index*")):
        with contextlib.suppress(OSError):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                cpu[f"L{level}"] = (idx / "size").read_text().strip()
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    return {
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(("OPENBLAS_", "OMP_"))},
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="print the machine record and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    cli = import_phaselab()
    if args.record:
        print(json.dumps(record(), indent=2))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".bench_work" / str(os.getpid())
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                cli, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work / name
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
