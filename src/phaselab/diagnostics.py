"""Statistical distances: binned/discrete TV, KS, clipped-noise TV.

The binned-TV protocol is fixed repo-wide: 20 equal-mass bins per coordinate,
bin edges taken from the first (oracle) sample, bootstrap CI with 200
resamples. For multi-dimensional samples the reported value is the maximum
over per-coordinate marginal TVs (joint 20^dim binning would swamp the
estimate with small-count noise at the sample sizes used here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

BOOTSTRAP_RESAMPLES = 200


@dataclass(frozen=True)
class DistanceReport:
    value: float
    ci95: tuple[float, float]
    n: tuple[int, int]

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("distances are nonnegative")


def _marginal_tv(a: np.ndarray, b: np.ndarray, bins: int):
    """TV over equal-mass bins of a; returns (tv, cell counts of a, of b).

    Two overflow cells catch mass outside the range of `a`, so fully
    disjoint samples register a TV near 1 rather than 1 - 1/bins.
    """
    edges = np.concatenate(([a.min()], np.quantile(a, np.linspace(0, 1, bins + 1)[1:-1]), [a.max()]))
    cells = bins + 2

    def cell_counts(v):
        idx = np.searchsorted(edges, v, side="right")
        idx[v == edges[-1]] = bins  # the maximum itself belongs to the last regular bin
        return np.bincount(idx, minlength=cells)[:cells]

    na, nb = cell_counts(a), cell_counts(b)
    tv = 0.5 * np.abs(na / a.size - nb / b.size).sum()
    return tv, na, nb


def tv_binned(
    a,
    b,
    bins: int = 20,
    rng: np.random.Generator | None = None,
    resamples: int = BOOTSTRAP_RESAMPLES,
) -> DistanceReport:
    """Half-L1 distance over equal-mass bins (edges from `a`), bootstrap CI."""
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T
    if a.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch")
    if min(a.shape[0], b.shape[0]) < 50 * bins:
        raise ValueError(f"need at least {50 * bins} samples per side for {bins} bins")
    rng = np.random.default_rng(0) if rng is None else rng

    tvs, counts_a, counts_b = [], [], []
    for j in range(a.shape[1]):
        tv, na_j, nb_j = _marginal_tv(a[:, j], b[:, j], bins)
        tvs.append(tv)
        counts_a.append(na_j)
        counts_b.append(nb_j)
    value = float(max(tvs))

    na, nb = a.shape[0], b.shape[0]
    boots = np.empty(resamples)
    for r in range(resamples):
        worst = 0.0
        for j in range(a.shape[1]):
            pa = rng.multinomial(na, counts_a[j] / na) / na
            pb = rng.multinomial(nb, counts_b[j] / nb) / nb
            worst = max(worst, 0.5 * np.abs(pa - pb).sum())
        boots[r] = worst
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return DistanceReport(value, (float(lo), float(hi)), (na, nb))


def tv_discrete(p, q) -> float:
    """Exact TV between two normalized probability tables of equal shape."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("shape mismatch")
    for t in (p, q):
        if abs(t.sum() - 1.0) > 1e-12 or (t < 0).any():
            raise ValueError("tables must be normalized to 1e-12 and nonnegative")
    return 0.5 * float(np.abs(p - q).sum())


def conditional_tv_check(p, q):
    """(E_y[TV(p|y, q|y)], 2*TV(p, q)) for joint tables with y along axis 0.

    The expectation is over y ~ p-marginal; a y with p-mass but zero q-mass
    contributes conditional TV 1.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    rhs = 2.0 * tv_discrete(p, q)
    py = p.sum(axis=1)
    qy = q.sum(axis=1)
    lhs = 0.0
    for i in range(p.shape[0]):
        if py[i] == 0.0:
            continue
        if qy[i] == 0.0:
            lhs += py[i]
            continue
        lhs += py[i] * 0.5 * np.abs(p[i] / py[i] - q[i] / qy[i]).sum()
    return float(lhs), float(rhs)


def clipped_noise_tv(beta: float, beta_max: float) -> float:
    """Exact TV between N(0, beta^2) and its truncation to [-beta_max, beta_max].

    Computed by adaptive quadrature (abs tol 1e-12) of |truncated - full|.
    """
    if beta <= 0 or beta_max <= 0:
        raise ValueError("beta and beta_max must be positive")
    z = beta_max / beta  # work in standardized units so tails stay resolvable
    outside = 2.0 * norm.sf(z)
    excess = outside / (1.0 - outside)  # c - 1 without cancellation

    def diff_in(u):
        return excess * norm.pdf(u)

    part_in, _ = quad(diff_in, 0.0, z, epsabs=1e-12, limit=200)
    part_out, _ = quad(norm.pdf, z, z + 5.0, epsabs=1e-300, epsrel=1e-12, limit=200)
    return 0.5 * (2.0 * part_in + 2.0 * (part_out + norm.sf(z + 5.0)))


def ks(a, cdf) -> float:
    """Kolmogorov-Smirnov statistic of samples against a callable CDF."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    if a.size == 0:
        raise ValueError("empty input")
    c = np.asarray(cdf(a), dtype=float)
    n = a.size
    i = np.arange(n)
    return float(np.max(np.maximum(np.abs(c - i / n), np.abs(c - (i + 1) / n))))
