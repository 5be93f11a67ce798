"""Order statistics for the benchmark's samples."""

from __future__ import annotations

import numpy as np

# Percentiles the benchmark may report as a metric's tail.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int) -> float:
    """The highest percentile in LADDER with at least ten of n samples beyond it.

    Below 20 samples not even the median has ten beyond it; the median is
    reported as its own tail then.
    """
    best = LADDER[0]
    for p in LADDER:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def summarize(values, better: str) -> dict:
    """Median, the worse-side tail percentile and the sample count.

    For a lower-is-better metric the tail is the high percentile p; for a
    higher-is-better one it is the low percentile 100 - p.
    """
    p = tail_percentile(len(values))
    tail_p = p if better == "lower" else 100.0 - p
    return {
        "median": float(np.median(values)),
        "tail_p": tail_p,
        "tail": float(np.quantile(values, tail_p / 100.0)),
        "n": len(values),
    }
