"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the speed a process gets drifts by 20-40% within
minutes, and CPU time drifts with wall time, so the drift is contention
for the core, not scheduling. The benchmark times this kernel right before
and after every CLI run and divides the run's throughput by the kernel's
rate: the drift hits both and cancels, while a change to phaselab moves only
the numerator. The kernel mixes the kinds of work phaselab does: many small
numpy calls, float formatting, and one pass over a 3 MB array.

The kernel must never change, because its rate is the unit of the
benchmark's throughput metric.
"""

from __future__ import annotations

import time

import numpy as np

_SMALL = np.arange(256.0)
_PAIRS = np.ones((64, 8))
_ROWS = np.linspace(0.0, 1.0, 200 * 16).reshape(200, 16)
_BLOCK = np.linspace(-1.0, 1.0, 200 * 256 * 8).reshape(200, 256, 8)


def chunk() -> float:
    """One unit of reference work, a few milliseconds long."""
    s = 0.0
    for i in range(150):
        s += float(np.sum(_SMALL * 1.0001**i)) + float(np.logaddexp(_PAIRS[:, 0], _PAIRS[:, 1]).sum())
    s += len("\n".join(",".join("%.17g" % v for v in row) for row in _ROWS))
    s += float((_BLOCK * 1.5 - 0.5).sum())
    return s


def rate(seconds: float) -> float:
    """Reference chunks per second, timed over whole chunks for at least `seconds`."""
    n = 0
    t0 = time.perf_counter()
    while True:
        chunk()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return n / elapsed
