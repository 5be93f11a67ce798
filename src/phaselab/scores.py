"""Exact sigma-smoothed densities and scores for the lattice-mixture family.

Two independent routes are implemented for the smoothed discretized Gaussian:
a Fourier (Poisson-summation) series, cut after its last term of at least
1e-18, and a direct lattice convolution sum; the smoothing picks one (_use_series).
They must agree to 1e-10 relative; tests enforce this. The exact mixture score
is two GEMMs and one softmax, in log-space; see mixture_score_exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .circuits import BooleanCircuit
from .circuits import all_inputs  # noqa: F401 - bench/spans.py traces this binding
from .instance import InstanceParams, LATTICE_EXTENT, lattice_atoms, phase_of_bit

# The clamp on exp arguments (exp is slow where it underflows; e^-700 is lost next to a largest
# term of 1), and the least log-likelihood, summed over the seeds, that a measurement y may have.
_LOG_CUTOFF = -700.0

# The series keeps exactly its terms a_j = exp(-c j^2) >= e^-_SERIES_LOG_CUT = 1e-18,
# c = 2 pi^2 rho^2 / (eps^2 v): j <= sqrt(_SERIES_LOG_CUT / c).
_SERIES_LOG_CUT = 18.0 * np.log(10.0)


@dataclass(frozen=True)
class DiscreteGaussianSpec:
    """Unit Gaussian on the lattice {k*eps + phase}, smoothed by N(0, rho^2)."""

    eps: float
    phase: float
    rho: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.phase not in (0.0, self.eps / 2.0):
            raise ValueError("phase must be 0 or eps/2")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")


@functools.lru_cache(maxsize=2)
def _series_coeffs(eps: float, rho: float):
    """The series' x-free factors, the same for both phases: v = 1 + rho^2, the coefficients
    a_j and angular frequencies 2*pi*j/eps of j >= 1, a_j freq_j / v and log sqrt(2 pi v)."""
    v = 1.0 + rho**2
    c = 2.0 * np.pi**2 * rho**2 / (eps**2 * v)
    j = np.arange(1, int(np.sqrt(_SERIES_LOG_CUT / c)) + 1, dtype=float)
    a, freq = np.exp(-c * j**2), 2.0 * np.pi * j / eps
    return v, a, freq, a * freq / v, 0.5 * np.log(2.0 * np.pi * v)


@functools.lru_cache(maxsize=8)
def _lattice_normalizer_series(eps: float, phase: float) -> float:
    """eps * sum_k w1(k*eps + phase), by Poisson summation (exact to 1e-40 terms)."""
    z = 1.0
    for j in range(1, 401):
        b = np.exp(-2.0 * np.pi**2 * j**2 / eps**2)
        if b < 1e-40:
            break
        z += 2.0 * b * np.cos(2.0 * np.pi * j * phase / eps)
    return z


def _dg_series_log_density(spec: DiscreteGaussianSpec, x: np.ndarray):
    v, a, freq, _, log_norm = _series_coeffs(spec.eps, spec.rho)
    x = np.asarray(x, dtype=float)
    # oscillatory factor T = 1 + 2 sum_j a_j cos((x/v - phase) freq_j): g = w_sqrt(v) T / Ztilde
    T = 1.0 + 2.0 * (np.cos(np.multiply.outer(x / v - spec.phase, freq)) @ a)
    z = _lattice_normalizer_series(spec.eps, spec.phase)
    with np.errstate(divide="ignore"):
        return -(x**2) / (2.0 * v) - log_norm + np.log(np.maximum(T, 0.0)) - np.log(z)


def _dg_series_score(spec: DiscreteGaussianSpec, x: np.ndarray):
    v, a, freq, afv, _ = _series_coeffs(spec.eps, spec.rho)
    x = np.asarray(x, dtype=float)
    arg = np.multiply.outer(x / v - spec.phase, freq)
    Tp = -2.0 * (np.sin(arg) @ afv)  # dT/dx
    return -x / v + Tp / np.maximum(1.0 + 2.0 * (np.cos(arg) @ a), 1e-300)


@functools.lru_cache(maxsize=2)
def _lattice_tables(spec: DiscreteGaussianSpec):
    """The lattice route's x-free factors: the atoms |t| <= 12 + 8 rho, their log weights as a
    column, rho^2, pts / rho^2 and log sqrt(2 pi rho^2)."""
    pts, p = lattice_atoms(spec.eps, spec.phase, extent=LATTICE_EXTENT + 8.0 * spec.rho)
    if p[0] == 0 or p[-1] == 0:  # outer weights underflow at large rho (direct calls only)
        pts, p = pts[p > 0], p[p > 0]
    rho2 = spec.rho**2
    return pts, np.log(p)[:, None], rho2, pts / rho2, 0.5 * np.log(2.0 * np.pi * rho2)


def _dg_lattice_parts(spec: DiscreteGaussianSpec, x: np.ndarray):
    """(log density, score) by direct convolution over atoms |t| <= 12 + 8 rho."""
    pts, logp, rho2, pts_scaled, log_norm = _lattice_tables(spec)
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    logd, score = np.empty((2,) + flat.shape)
    chunk = max(1, int(2**22 // len(pts)))
    for lo in range(0, flat.size, chunk):
        xs = flat[lo : lo + chunk]
        # (atoms, points), in place: log of atom weight times N(x; atom, rho^2), up to a constant
        lg = np.subtract.outer(pts, xs)
        lg *= lg
        lg *= -0.5 / rho2
        lg += logp
        m = np.maximum.reduce(lg, axis=0)
        lg -= m
        np.maximum(lg, _LOG_CUTOFF, out=lg)
        w = np.exp(lg, out=lg)
        tot = np.add.reduce(w, axis=0)
        logd[lo : lo + chunk] = m + np.log(tot) - log_norm
        score[lo : lo + chunk] = (pts_scaled @ w - tot * xs / rho2) / tot
    return logd.reshape(x.shape), score.reshape(x.shape)


def _use_series(spec: DiscreteGaussianSpec) -> bool:
    """Whether the spec's smoothing takes the Fourier series (rho >= 0.35 eps), not the lattice.

    At rho << eps the Fourier series suffers catastrophic cancellation between
    atoms (the true density there underflows the series' roundoff floor), so
    small smoothing uses the direct lattice convolution.
    """
    if spec.rho == 0:
        raise ValueError("rho = 0 is atomic (unsmoothed): no density, score undefined")
    return spec.rho >= 0.35 * spec.eps


def dg_smoothed_log_density(spec: DiscreteGaussianSpec, x):
    return _dg_series_log_density(spec, x) if _use_series(spec) else _dg_lattice_parts(spec, x)[0]


def dg_smoothed_score(spec: DiscreteGaussianSpec, x):
    return _dg_series_score(spec, x) if _use_series(spec) else _dg_lattice_parts(spec, x)[1]


def _phase_specs(eps: float, rho: float) -> list[DiscreteGaussianSpec]:
    """The smoothed lattices of bit +1 and bit -1, in that order."""
    return [DiscreteGaussianSpec(eps, phase_of_bit(b, eps), rho) for b in (1, -1)]


def _tail_phase_parts(params: InstanceParams, sigma: float, x_tail: np.ndarray):
    """(logd, sc) per tail coordinate and phase, each of shape (2,) + x_tail.shape: the log
    density and score of bit +1 at index 0 and of bit -1 at index 1."""
    ld, sc = np.empty((2, 2) + x_tail.shape)
    for i, spec in enumerate(_phase_specs(params.eps, sigma)):
        ld[i], sc[i] = dg_smoothed_log_density(spec, x_tail), dg_smoothed_score(spec, x_tail)
    return ld, sc


def _seed_tail_loglik(ld: np.ndarray, tail_rhs: np.ndarray) -> np.ndarray:
    """(n, 2^d) log-likelihood of the tail under each seed: ld[0] @ Fp.T + ld[1] @ (1-Fp).T.

    ld is (2, n, d_prime) as from _tail_phase_parts; tail_rhs is [Fp, 1-Fp].T, Fp the 0/1 table
    of f(s)_j == +1 (BooleanCircuit.float_seed_table).
    """
    return np.concatenate(ld, axis=1) @ tail_rhs  # (n, 2 d_prime) @ (2 d_prime, 2^d)


def mixture_score_exact(
    params: InstanceParams,
    f: BooleanCircuit,
    sigma: float,
    x,
    return_log_density: bool = False,
):
    """Exact score of the smoothed uniform seed mixture (cost 2^d; d <= MAX_ENUM_D).

    With v = 1 + sigma^2 and |s|^2 = d, the log-likelihood under seed s is
    (R/v) head.s + tail(s) + terms free of s: the weights w are one softmax of
    two GEMMs. The head score is (R w@S - head)/v; tail coordinate j mixes the
    phase scores by w@Fp_j. The log-likelihoods are finite, so the softmax of a
    point unlikely under every seed is still taken from its likeliest seed.
    """
    if f.n_inputs != params.d:
        raise ValueError("input length mismatch")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    X = np.asarray(x, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.dim:
        raise ValueError("dimension mismatch")

    S, Fp, tail_rhs = f.float_seed_table  # (2^d, d), (2^d, d_prime), (2 d_prime, 2^d)
    v = 1.0 + sigma**2
    head = X[:, : params.d]
    ld_ph, sc_ph = _tail_phase_parts(params, sigma, X[:, params.d :])  # (2, n, d_prime)

    loglik = _seed_tail_loglik(ld_ph, tail_rhs)  # (n, 2^d); updated in place from here on
    loglik += head @ ((params.R / v) * S.T)
    m = np.maximum.reduce(loglik, axis=1, keepdims=True)
    loglik -= m
    np.maximum(loglik, _LOG_CUTOFF, out=loglik)  # as in _dg_lattice_parts
    w = np.exp(loglik, out=loglik)
    tot = np.add.reduce(w, axis=1, keepdims=True)
    w /= tot
    if return_log_density:
        # terms free of s: from |head - R s|^2, the normalizer and the seed weight 2^-d
        shift = ((head**2).sum(axis=1) + params.R**2 * params.d) / (2.0 * v)
        shift += params.d * (0.5 * np.log(2.0 * np.pi * v) + np.log(2.0))
        log_mix = (m + np.log(tot))[:, 0] - shift

    out = np.empty_like(X)
    out[:, : params.d] = (-head + params.R * (w @ S)) / v
    wp = w @ Fp  # (n, d_prime): weight of bit +1 per tail coordinate
    out[:, params.d :] = wp * sc_ph[0] + (1.0 - wp) * sc_ph[1]

    return (out, log_mix) if return_log_density else out


def orthant_score(
    params: InstanceParams, f: BooleanCircuit, sigma: float, x
) -> np.ndarray:
    """Small-sigma surrogate: the component score of the sign orthant containing x."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    X = np.asarray(x, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.dim:
        raise ValueError("dimension mismatch")
    r = np.where(X[:, : params.d] >= 0, 1, -1).astype(np.int64)
    bits = f(r)  # (n, d_prime)
    v = 1.0 + sigma**2
    out = np.empty_like(X)
    out[:, : params.d] = -(X[:, : params.d] - params.R * r) / v
    tail = X[:, params.d :]
    plus, minus = (dg_smoothed_score(spec, tail) for spec in _phase_specs(params.eps, sigma))
    out[:, params.d :] = np.where(bits == 1, plus, minus)
    return out


def two_point_score(R: float, sigma: float, x):
    """Score of 0.5 N(-R, 1) + 0.5 N(R, 1) smoothed by N(0, sigma^2)."""
    from scipy.special import expit

    v = 1.0 + sigma**2
    x = np.asarray(x, dtype=float)
    w = expit(2.0 * R * x / v)  # posterior weight of the +R component
    return -(x - R * (2.0 * w - 1.0)) / v


def two_point_log_density(R: float, sigma: float, x):
    v = 1.0 + sigma**2
    x = np.asarray(x, dtype=float)
    la = -((x - R) ** 2) / (2 * v)
    lb = -((x + R) ** 2) / (2 * v)
    return np.logaddexp(la, lb) - np.log(2.0) - 0.5 * np.log(2.0 * np.pi * v)


def large_sigma_score(params: InstanceParams, sigma: float, x) -> np.ndarray:
    """Gaussian-mixture surrogate: two-point mixture per head coordinate, -x/(1+sigma^2) tail."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[..., : params.d] = two_point_score(params.R, sigma, x[..., : params.d])
    out[..., params.d :] = -x[..., params.d :] / (1.0 + sigma**2)
    return out


class ScoreProvider:
    """A named (sigma, x) -> score map on (n, dim) points."""

    def __init__(self, label: str, fn):
        self.label = label
        self._fn = fn

    def __call__(self, sigma: float, x):
        out = np.asarray(self._fn(sigma, np.asarray(x, dtype=float)))
        if not np.isfinite(out).all():
            raise FloatingPointError(f"provider {self.label!r} produced non-finite score")
        return out


# Every provider is a function of (sigma, x). Each looks its score function up in this module at
# call time, so that bench/spans.py and the tests can replace it there.
PROVIDER_NAMES = ("exact", "orthant", "large-sigma")


def provider_by_name(name: str, params: InstanceParams, f: BooleanCircuit) -> ScoreProvider:
    """The score provider called `name` for the instance (params, f); see PROVIDER_NAMES. The
    exact provider's seed tables are built now, so that d > MAX_ENUM_D raises ValueError here."""
    if name == "exact":
        f.float_seed_table
        return ScoreProvider(name, lambda s, x: mixture_score_exact(params, f, s, x))
    if name == "orthant":
        return ScoreProvider(name, lambda s, x: orthant_score(params, f, s, x))
    if name == "large-sigma":
        return ScoreProvider(name, lambda s, x: large_sigma_score(params, s, x))
    raise ValueError(f"unknown provider {name!r}; known: {', '.join(PROVIDER_NAMES)}")
