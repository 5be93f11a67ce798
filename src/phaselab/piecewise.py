"""Continuous piecewise-linear approximations to 1-D smoothed scores.

Three stages: uniform-grid linear interpolation, bridging of intervals where
the score is too large ("bad" intervals), and constant clamping of the far
tails. The final builder composes them with gamma = sigma*sqrt(kappa) and
delta = kappa^2, and asserts the structural bounds (piece count, slopes,
magnitude) with the calibration constants recorded below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as prng
from .instance import sample_discretized_gaussian
from .scores import dg_smoothed_score, two_point_score

# Calibration constants for the structural bounds of build_score_approx,
# fixed once for the whole repo. C4 is only checked empirically in tests.
C1_PIECES = 4.0
C2_SLOPE = 4.0
C3_BOUND = 2.0
C4_L2 = 10.0
MAX_GRID_INTERVALS = 2**18  # largest grid build_score_approx builds: 2-4 s and 250 MB for 'dg'


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function on R.

    Between consecutive breakpoints the function interpolates the stored
    values; outside the first/last breakpoint it extends linearly with
    left_slope / right_slope. Continuity is exact by representation.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    left_slope: float
    right_slope: float

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if bp.ndim != 1 or bp.size < 1 or bp.shape != vals.shape:
            raise ValueError("need matching 1-D breakpoints/values, at least one point")
        if bp.size > 1 and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise ValueError("breakpoints and values must be finite")
        if not (np.isfinite(self.left_slope) and np.isfinite(self.right_slope)):
            raise ValueError("end slopes must be finite")

    @property
    def piece_count(self) -> int:
        return self.breakpoints.size + 1

    def slopes(self) -> np.ndarray:
        """All piece slopes, end pieces included."""
        bp, vals = self.breakpoints, self.values
        inner = np.diff(vals) / np.diff(bp) if bp.size > 1 else np.empty(0)
        return np.concatenate(([self.left_slope], inner, [self.right_slope]))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        bp, vals = self.breakpoints, self.values
        out = np.interp(x, bp, vals)
        left = x < bp[0]
        right = x > bp[-1]
        if left.any():
            out = np.where(left, vals[0] + self.left_slope * (x - bp[0]), out)
        if right.any():
            out = np.where(right, vals[-1] + self.right_slope * (x - bp[-1]), out)
        return out

    def to_csv(self) -> str:
        header = (
            f"# piecewise-linear v1 left_slope={self.left_slope:.17g} "
            f"right_slope={self.right_slope:.17g}\nbreakpoint,value\n"
        )
        rows = "".join(
            f"{b:.17g},{v:.17g}\n" for b, v in zip(self.breakpoints, self.values)
        )
        return header + rows


@dataclass(frozen=True)
class ApproxParams:
    kappa: float
    sigma: float
    m2: float

    def __post_init__(self):
        if not (0 < self.kappa <= 0.25):
            raise ValueError("kappa must lie in (0, 1/4]")
        if self.sigma <= 0 or self.m2 <= 0:
            raise ValueError("sigma and m2 must be positive")

    @property
    def gamma(self) -> float:
        return self.sigma * np.sqrt(self.kappa)

    @property
    def delta(self) -> float:
        return self.kappa**2


def _grid(gamma: float, lo: float, hi: float) -> np.ndarray:
    """All integer multiples of gamma covering [lo, hi]."""
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise ValueError("need a finite nonempty range")
    k_lo = int(np.floor(lo / gamma))
    k_hi = int(np.ceil(hi / gamma))
    return np.arange(k_lo, k_hi + 1, dtype=float) * gamma


def build_good_interval(
    score, gamma: float, threshold: float, lo: float, hi: float
) -> PiecewiseLinear:
    """Interpolant with too-large-score intervals bridged.

    An interval [i*gamma, (i+1)*gamma] is good when a 21-point grid sup of
    |score| stays <= threshold. Over maximal runs of bad intervals the output
    interpolates linearly between the nearest good endpoints (constant beyond
    the outermost good interval), so |output| <= threshold everywhere. All
    grid breakpoints are kept; bridged pieces are collinear but still counted.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    grid = _grid(gamma, lo, hi)
    if grid.size < 2:
        raise ValueError("range shorter than one grid interval")
    vals = np.asarray(score(grid), dtype=float)

    # 21-point sup of |score| per interval
    offs = np.linspace(0.0, 1.0, 21)
    fine = grid[:-1, None] + gamma * offs[None, :]
    sup = np.abs(np.asarray(score(fine.ravel()), dtype=float)).reshape(fine.shape).max(axis=1)
    good = sup <= threshold
    if not good.any():
        raise ValueError("no good interval in range: configuration degenerate")

    # anchors are the grid points next to a good interval; every other point takes the
    # chord between its nearest anchors, or the outermost anchor's value past the last one
    anchor = np.zeros(grid.size, dtype=bool)
    anchor[:-1] |= good
    anchor[1:] |= good
    idx, k = np.flatnonzero(anchor), np.flatnonzero(~anchor)
    pos = np.searchsorted(idx, k)
    i, j = idx[np.maximum(pos - 1, 0)], idx[np.minimum(pos, idx.size - 1)]
    new_vals = vals.copy()
    new_vals[k] = vals[i]  # at an edge run i == j, the outermost anchor
    inner = i < j
    k, i, j = k[inner], i[inner], j[inner]
    t = (grid[k] - grid[i]) / (grid[j] - grid[i])
    new_vals[k] = vals[i] + t * (vals[j] - vals[i])

    ls = (new_vals[1] - new_vals[0]) / gamma
    rs = (new_vals[-1] - new_vals[-2]) / gamma
    out = PiecewiseLinear(grid, new_vals, ls, rs)
    # between the outermost anchors every value is an anchor's or a chord between two
    assert np.all(np.abs(new_vals[idx[0] : idx[-1] + 1]) <= threshold + 1e-12)
    return out


def clamp_tails(l: PiecewiseLinear, radius: float) -> PiecewiseLinear:
    """Hold l constant outside |x| <= radius; adds at most 2 pieces."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    a, b = -radius, radius
    inside = (l.breakpoints > a) & (l.breakpoints < b)
    bp = np.concatenate(([a], l.breakpoints[inside], [b]))
    vals = np.concatenate(([l(a)], l.values[inside], [l(b)]))
    return PiecewiseLinear(bp, vals, 0.0, 0.0)


def build_score_approx(score, ap: ApproxParams, max_radius: float = np.inf) -> PiecewiseLinear:
    """Full three-stage approximation; asserts the structural bounds.

    The tails are clamped at |x| = min(m2/sqrt(delta), max_radius).
    """
    gamma, delta = ap.gamma, ap.delta
    threshold = np.log(1.0 / delta) / ap.sigma
    radius = min(ap.m2 / np.sqrt(delta), max_radius)
    intervals = 2.0 * radius / gamma + 4  # the grid spans [-radius - 2 gamma, radius + 2 gamma]
    if intervals > MAX_GRID_INTERVALS:
        raise ValueError(
            f"sigma={ap.sigma:g}, kappa={ap.kappa:g} need {intervals:.3g} grid intervals, "
            f"more than {MAX_GRID_INTERVALS}"
        )
    l2 = build_good_interval(score, gamma, threshold, -radius - 2 * gamma, radius + 2 * gamma)
    l3 = clamp_tails(l2, radius)

    assert l3.piece_count <= C1_PIECES * ap.m2 / (ap.sigma * ap.kappa**1.5) + 8
    assert np.all(np.abs(l3.slopes()) <= C2_SLOPE * np.log(1 / ap.kappa) / (ap.sigma**2 * np.sqrt(ap.kappa)) + 1e-9)
    assert np.all(np.abs(l3.values) <= C3_BOUND * np.log(1 / ap.kappa) / ap.sigma + 1e-9)
    return l3


def measure_l2_error(l, score, sampler, n: int, rng: np.random.Generator) -> float:
    """Monte-Carlo E[(l(x) - score(x))^2] with x from the sampler."""
    x = sampler(n, rng)
    diff = np.asarray(l(x), dtype=float) - np.asarray(score(x), dtype=float)
    return float(np.mean(diff**2))


# --- named 1-D test families (score + sampler of the smoothed law) ---

EPS_DG = 0.5  # lattice period of the 'dg' family


def score_family(name: str, sigma: float):
    """Return (score, sampler, m2) for a named smoothed 1-D family, each centred at 0.

    gaussian: N(0,1); two_point: 0.5 N(-3,1) + 0.5 N(3,1); dg: unit Gaussian on
    the phase-0 lattice with period EPS_DG. All smoothed by N(0, sigma^2).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    v = 1.0 + sigma**2
    if name == "gaussian":
        score = lambda x: -np.asarray(x, dtype=float) / v
        sampler = lambda n, rng: np.sqrt(v) * rng.standard_normal(n)
        return score, sampler, float(np.sqrt(v))
    if name == "two_point":
        score = lambda x: two_point_score(3.0, sigma, x)
        def sampler(n, rng):
            return 3.0 * prng.signs(rng, n) + np.sqrt(v) * rng.standard_normal(n)
        return score, sampler, float(np.sqrt(9.0 + v))
    if name == "dg":
        score = lambda x: dg_smoothed_score(EPS_DG, sigma, x, (1,))[0]
        def sampler(n, rng):  # bit +1: the phase-0 lattice
            return sample_discretized_gaussian(1, EPS_DG, rng, n) + sigma * rng.standard_normal(n)
        return score, sampler, float(np.sqrt(v))
    raise ValueError(f"unknown test family {name!r}")
