"""One fresh interpreter's view of a workload: set-up time or peak memory.

    python3 bench/probe.py setup <workload> <seed> <out-dir>
    python3 bench/probe.py run <workload> <seed> <out-dir>

`setup` times `import phaselab.cli` plus the calls a CLI run makes before
sampling (see workloads.presample). `run` runs `python3 -m phaselab.cli` once
into <out-dir> and reports that child's ru_maxrss. The result is one JSON line
on stdout.

The peak is read here and not in the benchmark's own process: Linux carries
the parent's peak resident set into a child's ru_maxrss when the child
execs, so the parent must be a small interpreter that never imports numpy.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    mode, name, seed, out = argv[0], argv[1], int(argv[2]), argv[3]
    w = workloads.WORKLOADS[name]
    if mode == "setup":
        sys.path.insert(0, str(SRC))
        t0 = time.perf_counter()
        from phaselab import cli

        workloads.presample(cli, w, seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "phaselab.cli", *w.argv(seed, out)]
    code = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=50).returncode
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"code": code, "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
