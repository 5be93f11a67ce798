import numpy as np
import pytest

from summary import summarize, tail_percentile


@pytest.mark.parametrize(
    "n, p",
    [(1, 50), (19, 50), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (199, 90), (200, 95), (999, 95), (1000, 99), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p


def test_summarize_takes_the_tail_on_the_worse_side():
    xs = [float(v) for v in range(1, 41)]  # 40 samples: p75 is the tail
    low = summarize(xs, "lower")
    high = summarize(xs, "higher")
    assert (low["tail_p"], high["tail_p"]) == (75.0, 25.0)
    assert low["tail"] == np.quantile(xs, 0.75)
    assert high["tail"] == np.quantile(xs, 0.25)
    assert low["median"] == high["median"] == 20.5
    assert low["n"] == 40
