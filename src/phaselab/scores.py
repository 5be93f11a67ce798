"""Exact sigma-smoothed densities and scores for the lattice-mixture family.

Two independent routes are implemented for the smoothed discretized Gaussian:
a truncated Fourier (Poisson-summation) series and a direct lattice
convolution sum. They must agree to 1e-10 relative; tests enforce this. The
exact mixture score is two GEMMs and one softmax, in log-space; see mixture_score_exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .circuits import OneWayCandidate
from .circuits import all_inputs  # noqa: F401 - bench/spans.py traces this binding
from .instance import InstanceParams, LATTICE_EXTENT, lattice_atoms, phase_of_bit

_LOG_CUTOFF = -700.0  # densities below e^-700 are reported as -inf log-density
_FLOOR = -1e300  # stands in for -inf inside a GEMM; far below any sum of finite log-densities

# Smallest J with exp(-J^2 rho^2 / (2 eps^2 (1+rho^2))) < 1e-18. This is far
# more conservative than the true series decay exp(-2 pi^2 j^2 rho^2/(eps^2 v)).
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


def _series_coeffs(spec: DiscreteGaussianSpec):
    """Nonzero-frequency coefficients a_j and angular frequencies 2*pi*j/eps."""
    v = 1.0 + spec.rho**2
    J = int(np.ceil(spec.eps * np.sqrt(2.0 * v * _SERIES_LOG_CUT) / spec.rho))
    j = np.arange(1, J + 1, dtype=float)
    a = np.exp(-2.0 * np.pi**2 * j**2 * spec.rho**2 / (spec.eps**2 * v))
    return a, 2.0 * np.pi * j / spec.eps


def _lattice_normalizer_series(eps: float, phase: float) -> float:
    """eps * sum_k w1(k*eps + phase), by Poisson summation (exact to 1e-40 terms)."""
    z = 1.0
    j = 1
    while j <= 400:
        b = np.exp(-2.0 * np.pi**2 * j**2 / eps**2)
        if b < 1e-40:
            break
        z += 2.0 * b * np.cos(2.0 * np.pi * j * phase / eps)
        j += 1
    return z


def _series_T(spec: DiscreteGaussianSpec, x: np.ndarray):
    """Oscillatory factor T(x) and its derivative, with g = w_sqrt(v) * T / Ztilde."""
    v = 1.0 + spec.rho**2
    a, freq = _series_coeffs(spec)
    arg = np.multiply.outer(np.asarray(x, dtype=float) / v - spec.phase, freq)
    T = 1.0 + 2.0 * (np.cos(arg) @ a)
    Tp = -2.0 * (np.sin(arg) @ (a * freq / v))
    return T, Tp


def _dg_series_log_density(spec: DiscreteGaussianSpec, x: np.ndarray):
    v = 1.0 + spec.rho**2
    T, _ = _series_T(spec, x)
    z = _lattice_normalizer_series(spec.eps, spec.phase)
    base = -np.asarray(x, dtype=float) ** 2 / (2.0 * v) - 0.5 * np.log(2.0 * np.pi * v)
    with np.errstate(divide="ignore"):
        out = base + np.log(np.maximum(T, 0.0)) - np.log(z)
    return np.where(out < _LOG_CUTOFF, -np.inf, out)


def _dg_series_score(spec: DiscreteGaussianSpec, x: np.ndarray):
    v = 1.0 + spec.rho**2
    T, Tp = _series_T(spec, x)
    return -np.asarray(x, dtype=float) / v + Tp / np.maximum(T, 1e-300)


def _dg_lattice_parts(spec: DiscreteGaussianSpec, x: np.ndarray):
    """(log density, score) by direct convolution over atoms |t| <= 12 + 8 rho."""
    pts, p = lattice_atoms(spec.eps, spec.phase, extent=LATTICE_EXTENT + 8.0 * spec.rho)
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    logd = np.empty(flat.shape)
    score = np.empty(flat.shape)
    logp = np.log(p)
    rho2 = spec.rho**2
    chunk = max(1, int(2**22 // len(pts)))
    for lo in range(0, flat.size, chunk):
        xs = flat[lo : lo + chunk, None]
        diff = xs - pts[None, :]
        lg = logp[None, :] - diff**2 / (2.0 * rho2)
        m = lg.max(axis=1, keepdims=True)
        # exp is slow where it underflows; e^-700 is lost next to the largest term, 1
        w = np.exp(np.maximum(lg - m, _LOG_CUTOFF))
        tot = w.sum(axis=1)
        logd[lo : lo + chunk] = m[:, 0] + np.log(tot) - 0.5 * np.log(2.0 * np.pi * rho2)
        score[lo : lo + chunk] = (w @ (pts / rho2) - (w.sum(axis=1)) * xs[:, 0] / rho2) / tot
    logd = np.where(logd < _LOG_CUTOFF, -np.inf, logd)
    return logd.reshape(x.shape), score.reshape(x.shape)


def _resolve_method(spec: DiscreteGaussianSpec, method: str) -> str:
    """'auto' picks the numerically safe route for the given smoothing.

    At rho << eps the Fourier series suffers catastrophic cancellation between
    atoms (the true density there underflows the series' roundoff floor), so
    small smoothing uses the direct lattice convolution.
    """
    if method == "auto":
        return "lattice" if spec.rho < 0.35 * spec.eps else "series"
    if method in ("series", "lattice"):
        return method
    raise ValueError(f"unknown method {method!r}")


def dg_smoothed_log_density(spec: DiscreteGaussianSpec, x, method: str = "auto"):
    if spec.rho == 0:
        raise ValueError("rho = 0 is atomic; no density")
    if _resolve_method(spec, method) == "series":
        return _dg_series_log_density(spec, x)
    return _dg_lattice_parts(spec, x)[0]


def dg_smoothed_density(spec: DiscreteGaussianSpec, x, method: str = "auto"):
    return np.exp(dg_smoothed_log_density(spec, x, method=method))


def dg_smoothed_score(spec: DiscreteGaussianSpec, x, method: str = "auto"):
    if spec.rho == 0:
        raise ValueError("rho = 0 is atomic (unsmoothed); score undefined")
    if _resolve_method(spec, method) == "series":
        return _dg_series_score(spec, x)
    return _dg_lattice_parts(spec, x)[1]


def _phase_specs(eps: float, rho: float) -> list[DiscreteGaussianSpec]:
    """The smoothed lattices of bit +1 and bit -1, in that order."""
    return [DiscreteGaussianSpec(eps, phase_of_bit(b, eps), rho) for b in (1, -1)]


def _tail_phase_parts(params: InstanceParams, sigma: float, x_tail: np.ndarray):
    """Per tail coordinate: log density and score for both phases.

    Returns (logd, sc) of shape (2,) + x_tail.shape, index 0 = bit +1, 1 = bit -1.
    """
    specs = _phase_specs(params.eps, sigma)
    ld = np.stack([dg_smoothed_log_density(spec, x_tail) for spec in specs])
    return ld, np.stack([dg_smoothed_score(spec, x_tail) for spec in specs])


def _seed_tail_loglik(ld: np.ndarray, Fp: np.ndarray) -> np.ndarray:
    """(n, 2^d) log-likelihood of the tail under each seed: ld[0] @ Fp.T + ld[1] @ (1-Fp).T.

    ld is (2, n, d_prime) as from _tail_phase_parts; Fp is the 0/1 table of f(s)_j == +1.
    The GEMM sees -inf floored at _FLOOR (-inf * 0 is NaN); a sum that met the floor is -inf.
    """
    lhs = np.concatenate(np.maximum(ld, _FLOOR), axis=1)  # (n, 2 d_prime)
    out = lhs @ np.concatenate((Fp, 1.0 - Fp), axis=1).T
    out[out < 0.5 * _FLOOR] = -np.inf
    return out


def mixture_score_exact(
    params: InstanceParams,
    f: OneWayCandidate,
    sigma: float,
    x,
    return_log_density: bool = False,
):
    """Exact score of the smoothed uniform seed mixture (cost 2^d; d <= 12).

    With v = 1 + sigma^2 and |s|^2 = d, the log-likelihood under seed s is
    (R/v) head.s + tail(s) + terms free of s: the weights w are one softmax of
    two GEMMs. The head score is (R w@S - head)/v; tail coordinate j mixes the
    phase scores by w@Fp_j. A seed with a -inf tail term gets weight exactly 0;
    a point that every seed rules out gets a NaN score and log density -inf.
    """
    if f.input_len != params.d:
        raise ValueError("input length mismatch")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[-1] != params.dim:
        raise ValueError("dimension mismatch")

    S, F = f.seed_table  # (2^d, d), (2^d, d_prime)
    S, Fp = S.astype(float), (F == 1).astype(float)
    v = 1.0 + sigma**2
    head = X[:, : params.d]
    ld_ph, sc_ph = _tail_phase_parts(params, sigma, X[:, params.d :])  # (2, n, d_prime)

    loglik = _seed_tail_loglik(ld_ph, Fp)  # (n, 2^d); updated in place from here on
    loglik += head @ ((params.R / v) * S.T)
    # terms free of s: from |head - R s|^2, the normalizer and the seed weight 2^-d
    shift = ((head**2).sum(axis=1) + params.R**2 * params.d) / (2.0 * v)
    shift += params.d * (0.5 * np.log(2.0 * np.pi * v) + np.log(2.0))
    with np.errstate(invalid="ignore", divide="ignore"):  # rows every seed rules out
        m = loglik.max(axis=1, keepdims=True)
        m[np.isneginf(m)] = 0.0  # such a row: weights 0/0 = NaN, log density -inf
        loglik -= m
        # as in _dg_lattice_parts: no slow underflow in exp; -inf stays -inf (weight 0)
        np.maximum(loglik, _LOG_CUTOFF, out=loglik, where=np.isfinite(loglik))
        w = np.exp(loglik, out=loglik)
        tot = w.sum(axis=1, keepdims=True)
        w /= tot
        log_mix = (m + np.log(tot))[:, 0] - shift

    out = np.empty_like(X)
    out[:, : params.d] = (-head + params.R * (w @ S)) / v
    wp = w @ Fp  # (n, d_prime): weight of bit +1 per tail coordinate
    out[:, params.d :] = wp * sc_ph[0] + (1.0 - wp) * sc_ph[1]

    if single:
        out, log_mix = out[0], log_mix[0]
    return (out, log_mix) if return_log_density else out


def orthant_score(
    params: InstanceParams, f: OneWayCandidate, sigma: float, x
) -> np.ndarray:
    """Small-sigma surrogate: the component score of the sign orthant containing x."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    r = np.where(X[:, : params.d] >= 0, 1, -1).astype(np.int64)
    bits = f(r)  # (n, d_prime)
    v = 1.0 + sigma**2
    out = np.empty_like(X)
    out[:, : params.d] = -(X[:, : params.d] - params.R * r) / v
    tail = X[:, params.d :]
    plus, minus = (dg_smoothed_score(spec, tail) for spec in _phase_specs(params.eps, sigma))
    out[:, params.d :] = np.where(bits == 1, plus, minus)
    return out[0] if single else out


def two_point_score(R: float, sigma: float, x):
    """Score of 0.5 N(-R, 1) + 0.5 N(R, 1) smoothed by N(0, sigma^2)."""
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
    """A named (sigma, x) -> score map on (n, dim) points; the built-in scores also take (dim,)."""

    def __init__(self, label: str, fn):
        self.label = label
        self._fn = fn

    def __call__(self, sigma: float, x):
        out = np.asarray(self._fn(sigma, np.asarray(x, dtype=float)))
        if not np.all(np.isfinite(out)):
            raise FloatingPointError(f"provider {self.label!r} produced non-finite score")
        return out


# Names accepted by provider_by_name. The file-backed providers are frozen: a
# network or piecewise function built at one smoothing level evaluates the same
# way at every requested sigma, so use them only at the sigma they were built for.
PROVIDER_NAMES = ("exact", "orthant", "large-sigma", "relu:<file>", "piecewise:<file>")


def provider_by_name(name: str, params: InstanceParams, f: OneWayCandidate) -> ScoreProvider:
    """The score provider called `name` for the instance (params, f); see PROVIDER_NAMES."""
    if name == "exact":
        return ScoreProvider(name, lambda s, x: mixture_score_exact(params, f, s, x))
    if name == "orthant":
        return ScoreProvider(name, lambda s, x: orthant_score(params, f, s, x))
    if name == "large-sigma":
        return ScoreProvider(name, lambda s, x: large_sigma_score(params, s, x))
    if name.startswith("relu:"):
        from .relu import eval_net, network_from_text

        with open(name[5:]) as fh:
            net = network_from_text(fh.read())
        if (net.input_dim, net.output_dim) != (params.dim, params.dim):
            raise ValueError(
                f"network maps {net.input_dim} to {net.output_dim} coordinates; "
                f"the instance has d + d_prime = {params.dim}"
            )
        return ScoreProvider(name, lambda sigma, x: eval_net(net, x))
    if name.startswith("piecewise:"):
        from .piecewise import PiecewiseLinear

        with open(name[10:]) as fh:
            pl = PiecewiseLinear.from_csv(fh.read())
        return ScoreProvider(name, lambda sigma, x: pl(x))  # applied coordinatewise
    raise ValueError(f"unknown provider {name!r}; known: {', '.join(PROVIDER_NAMES)}")
