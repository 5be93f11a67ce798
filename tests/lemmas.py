"""Helpers that pin the paper's supporting lemmas; only the tests call them.

- Statistical distances: binned and discrete TV, the conditional-TV inequality, the TV of
  clipped noise and KS. The binned-TV protocol is fixed repo-wide: 20 equal-mass bins per
  coordinate, bin edges taken from the first (oracle) sample. For multi-dimensional samples
  the reported value is the maximum over per-coordinate marginal TVs (joint 20^dim binning
  would swamp the estimate with small-count noise at the sample sizes used here).
- The bounded-noise measurement channel: beta*N(0, I) noise clipped to the decode radius eps/4.
- A constant candidate map f(s) = bits.
- The log densities of the named 1-D score families, for finite-difference cross-checks, and
  the Monte-Carlo score-moment bound.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from phaselab.circuits import BooleanCircuit, Gate
from phaselab.instance import InstanceParams
from phaselab.piecewise import EPS_DG, score_family
from phaselab.scores import dg_smoothed_log_density

# --- statistical distances ---

BINS = 20


def _marginal_tv(a: np.ndarray, b: np.ndarray) -> float:
    """TV over BINS equal-mass bins of a.

    Two overflow cells catch mass outside the range of `a`, so fully
    disjoint samples register a TV near 1 rather than 1 - 1/BINS.
    """
    edges = np.concatenate(([a.min()], np.quantile(a, np.linspace(0, 1, BINS + 1)[1:-1]), [a.max()]))
    cells = BINS + 2

    def cell_counts(v):
        idx = np.searchsorted(edges, v, side="right")
        idx[v == edges[-1]] = BINS  # the maximum itself belongs to the last regular bin
        return np.bincount(idx, minlength=cells)[:cells]

    return 0.5 * np.abs(cell_counts(a) / a.size - cell_counts(b) / b.size).sum()


def tv_binned(a, b) -> float:
    """Half-L1 distance over BINS equal-mass bins (edges from `a`), the largest over coordinates."""
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T
    if a.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch")
    if min(a.shape[0], b.shape[0]) < 50 * BINS:
        raise ValueError(f"need at least {50 * BINS} samples per side for {BINS} bins")
    return float(max(_marginal_tv(a[:, j], b[:, j]) for j in range(a.shape[1])))


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


# --- the bounded-noise channel ---


def clipped_noise(
    beta: float, beta_max: float, rng: np.random.Generator, shape
) -> np.ndarray:
    """beta*N(0,1) truncated to [-beta_max, beta_max], exactly, by the inverse CDF:
    u ~ U[Phi(-a), Phi(a)) with a = beta_max/beta; the clip only absorbs rounding."""
    if beta == 0:
        return np.zeros(shape)
    a = beta_max / beta
    eta = beta * ndtri(rng.uniform(ndtr(-a), ndtr(a), size=shape))
    return np.clip(eta, -beta_max, beta_max)


def measure_clipped(x: np.ndarray, params: InstanceParams, rng: np.random.Generator) -> np.ndarray:
    """Measurement under the bounded-noise channel: |noise| <= eps/4, bits_eps's decode radius."""
    x = np.asarray(x)
    tail = x[..., params.d :]
    return tail + clipped_noise(params.beta, params.eps / 4, rng, tail.shape)


# --- candidate maps ---


def constant_candidate(d: int, bits: np.ndarray) -> BooleanCircuit:
    """f(s) = bits for every s. +1 = AND(x0, NOT x0), -1 = OR(x0, NOT x0)."""
    bits = np.asarray(bits)
    gates = [Gate("NOT", (0,))]
    not0 = d  # reference of NOT(x0)
    outs = []
    for b in bits:
        kind = "OR" if b == -1 else "AND"
        gates.append(Gate(kind, (0, not0)))
        outs.append(d + len(gates) - 1)
    return BooleanCircuit(d, tuple(gates), tuple(outs), "constant")


# --- the named 1-D score families (phaselab.piecewise.score_family) ---


def two_point_log_density(R: float, sigma: float, x):
    v = 1.0 + sigma**2
    x = np.asarray(x, dtype=float)
    la = -((x - R) ** 2) / (2 * v)
    lb = -((x + R) ** 2) / (2 * v)
    return np.logaddexp(la, lb) - np.log(2.0) - 0.5 * np.log(2.0 * np.pi * v)


def score_family_log_density(name: str, sigma: float):
    """Log density matching score_family (for finite-difference cross-checks)."""
    v = 1.0 + sigma**2
    if name == "gaussian":
        return lambda x: -np.asarray(x, dtype=float) ** 2 / (2 * v) - 0.5 * np.log(2 * np.pi * v)
    if name == "two_point":
        return lambda x: two_point_log_density(3.0, sigma, x)
    if name == "dg":
        return lambda x: dg_smoothed_log_density(EPS_DG, sigma, x, (1,))[0]
    raise ValueError(f"unknown test family {name!r}")


def estimate_sup_score_moment(
    name: str, sigma: float, eps: float, n: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo E[ sup_{|c|<=eps} score'(x+c)^2 ] for a named family.

    The derivative uses centered differences with step sigma*1e-4; the sup is
    taken over a 41-point grid on [x-eps, x+eps].
    """
    if eps > sigma:
        raise ValueError("require eps <= sigma")
    score, sampler, _ = score_family(name, sigma)
    x = sampler(n, rng)
    offs = np.linspace(-eps, eps, 41) if eps > 0 else np.zeros(1)
    pts = x[:, None] + offs[None, :]
    h = sigma * 1e-4
    deriv = (score(pts + h) - score(pts - h)) / (2 * h)
    return float(np.mean(np.max(deriv**2, axis=1)))
