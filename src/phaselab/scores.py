"""Exact sigma-smoothed densities and scores for the lattice-mixture family.

Two independent routes are implemented for the smoothed discretized Gaussian:
a Fourier (Poisson-summation) series, cut after its last term of at least
1e-18, and a direct lattice convolution sum; the smoothing picks one (_smoothed).
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

# The least log-likelihood, summed over the seeds, that a measurement y may have (posterior.py).
_LOG_CUTOFF = -700.0

# The floor of the two exp clamps below (exp is slow where it underflows). Each clamps a log
# weight less its row's largest, so a floored term is lost next to the largest term 1. The sums
# that follow, of +-e^F / 2^d terms (2^d seeds' weights, normalised), leave rounding residues that
# are multiples of e^F 2^-52 / 2^d; these stay normal, off x86's slow subnormal path, only if
# F >= ln 2 (-1022 + 52 + d): -664 at d = MAX_ENUM_D = 12. -600 holds for sums of up to 2^100
# terms, so for any lattice table's atoms too. At -700, w @ S ran 4x slower on an Intel Xeon.
_EXP_FLOOR = -600.0

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
    j, freq = _series_freqs(int(np.sqrt(_SERIES_LOG_CUT / c)), eps)
    a = np.exp(-c * j**2)
    return v, a, freq, a * freq / v, 0.5 * np.log(2.0 * np.pi * v)


@functools.lru_cache(maxsize=4)
def _series_freqs(J: int, eps: float):
    """j = 1..J and the angular frequencies 2*pi*j/eps: rho sets only J."""
    j = np.arange(1, J + 1, dtype=float)
    return j, 2.0 * np.pi * j / eps


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


@functools.lru_cache(maxsize=8)
def _series_phases(eps: float, phases: tuple, ndim: int):
    """The phases and their log Ztilde as (k, 1, ...) columns against an x of ndim >= 1 dims (a
    stack of dot products rounds as lone ones do; a matrix product need not)."""
    col = (len(phases),) + (1,) * ndim
    logz = [np.log(_lattice_normalizer_series(eps, ph)) for ph in phases]
    return np.reshape(phases, col), np.reshape(logz, col)


def _dg_series(specs, x: np.ndarray, part: int):
    """Part 0 (log density) or 1 (score) on the series route of k specs that share eps and rho:
    (k,) + x.shape, or (k, 1) for a scalar x."""
    v, a, freq, afv, log_norm = _series_coeffs(specs[0].eps, specs[0].rho)
    phase, logz = _series_phases(specs[0].eps, tuple(s.phase for s in specs), max(x.ndim, 1))
    arg = np.multiply.outer(x / v - phase, freq)
    if part == 1:
        Tp = -2.0 * (np.sin(arg) @ afv)  # dT/dx
        return -x / v + Tp / np.maximum(1.0 + 2.0 * (np.cos(arg) @ a), 1e-300)
    # oscillatory factor T = 1 + 2 sum_j a_j cos((x/v - phase) freq_j): g = w_sqrt(v) T / Ztilde
    T = 1.0 + 2.0 * (np.cos(arg) @ a)
    with np.errstate(divide="ignore"):
        return -(x**2) / (2.0 * v) - log_norm + np.log(np.maximum(T, 0.0)) - logz


@functools.lru_cache(maxsize=2)
def _lattice_tables(eps: float, rho: float):
    """The lattice route's x-free factors: rho^2, log sqrt(2 pi rho^2), and for phase 0, then eps/2,
    the atoms |t| <= 12 + 8 rho of positive weight, their log weights (a column) and pts / rho^2."""
    rho2, phases = rho**2, []
    for phase in (0.0, eps / 2.0):
        pts, logp = lattice_atoms(eps, phase, extent=LATTICE_EXTENT + 8.0 * rho, log=True)
        phases.append((pts, logp[:, None], pts / rho2))
    return rho2, 0.5 * np.log(2.0 * np.pi * rho2), phases


def _dg_lattice_parts(spec: DiscreteGaussianSpec, x: np.ndarray, parts=(0, 1)):
    """Parts 0 (log density) and 1 (score), or those in parts, stacked, by direct convolution
    over atoms |t| <= 12 + 8 rho."""
    rho2, log_norm, phases = _lattice_tables(spec.eps, spec.rho)
    pts, logp, pts_scaled = phases[spec.phase != 0.0]
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty((len(parts), flat.size))
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
        np.maximum(lg, _EXP_FLOOR, out=lg)
        w = np.exp(lg, out=lg)
        tot = np.add.reduce(w, axis=0)
        for row, part in zip(out, parts):
            if part == 0:
                row[lo : lo + chunk] = m + np.log(tot) - log_norm
            else:
                row[lo : lo + chunk] = (pts_scaled @ w - tot * xs / rho2) / tot
    return out.reshape((len(parts),) + x.shape)


def _smoothed(spec, x, part: int):
    """Part 0 (dg_smoothed_log_density) or 1 (dg_smoothed_score) of a spec or a phase pair."""
    specs = (spec,) if isinstance(spec, DiscreteGaussianSpec) else tuple(spec)
    if len({(s.eps, s.rho) for s in specs}) != 1:
        raise ValueError("the specs of a phase pair must share eps and rho")
    eps, rho, x = specs[0].eps, specs[0].rho, np.asarray(x, dtype=float)
    if rho == 0:
        raise ValueError("rho = 0 is atomic (unsmoothed): no density, score undefined")
    # At rho << eps the Fourier series suffers catastrophic cancellation between atoms (the true
    # density there underflows the series' roundoff floor): rho < 0.35 eps takes the lattice.
    if rho >= 0.35 * eps:
        out = _dg_series(specs, x, part).reshape((len(specs),) + x.shape)
    else:  # one (atoms, points) table per phase, one phase after the other
        out = np.concatenate([_dg_lattice_parts(s, x, (part,)) for s in specs])
    return out[0] if isinstance(spec, DiscreteGaussianSpec) else out


def dg_smoothed_log_density(spec, x):
    """The log density at x of a spec, or of both specs of a phase pair (_phase_specs: specs that
    share eps and rho) as a (2,) + x.shape stack."""
    return _smoothed(spec, x, 0)


def dg_smoothed_score(spec, x):
    """The score at x of a spec, or of both specs of a phase pair as a (2,) + x.shape stack."""
    return _smoothed(spec, x, 1)


def _phase_specs(eps: float, rho: float) -> tuple[DiscreteGaussianSpec, ...]:
    """The phase pair: the smoothed lattices of bit +1 and bit -1, in that order."""
    return tuple(DiscreteGaussianSpec(eps, phase_of_bit(b, eps), rho) for b in (1, -1))


def _seed_tail_loglik(ld: np.ndarray, tail_rhs: np.ndarray) -> np.ndarray:
    """(n, 2^d) log-likelihood of the tail under each seed: ld[0] @ Fp.T + ld[1] @ (1-Fp).T.

    ld is (2, n, d_prime), dg_smoothed_log_density of the phase pair; tail_rhs is [Fp, 1-Fp].T,
    Fp the 0/1 table of f(s)_j == +1 (BooleanCircuit.float_seed_table).
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
    pair, tail = _phase_specs(params.eps, sigma), X[:, params.d :]
    ld_ph = dg_smoothed_log_density(pair, tail)  # (2, n, d_prime): bit +1, then bit -1
    sc_ph = dg_smoothed_score(pair, tail)

    loglik = _seed_tail_loglik(ld_ph, tail_rhs)  # (n, 2^d); updated in place from here on
    loglik += head @ ((params.R / v) * S.T)
    m = np.maximum.reduce(loglik, axis=1, keepdims=True)
    loglik -= m
    np.maximum(loglik, _EXP_FLOOR, out=loglik)  # as in _dg_lattice_parts
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
    plus, minus = dg_smoothed_score(_phase_specs(params.eps, sigma), tail)
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
