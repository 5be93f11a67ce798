"""The lattice-mixture distribution family, its measurement channels, and decoders.

The family over R^(d+dPrime) is a uniform mixture over seeds s in {-1,+1}^d of
product distributions: the first d coordinates are N(R*s_i, 1); the last dPrime
coordinates are standard Gaussians discretized to the lattice {k*eps + phase}
with phase 0 (bit +1) or eps/2 (bit -1), the bit pattern being f(s) for a fixed
candidate map f. Measurements observe the last dPrime coordinates plus
beta*N(0, I) noise (optionally clipped to [-betaMax, betaMax]).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .circuits import BooleanCircuit
from .rng import signs

LATTICE_EXTENT = 12.0  # mass of a unit Gaussian beyond |x| > 12 is < 1e-30
# Largest accepted eps. The series and lattice routes of the smoothed density agree
# to 4e-13 relative at eps 8, 1e-8 at 12 and only 1e-2 at 16 (spec: 1e-10); above
# 24 the bit -1 lattice has no atom within LATTICE_EXTENT at all.
EPS_MAX = 8.0


@dataclass(frozen=True)
class InstanceParams:
    d: int
    d_prime: int
    R: float
    eps: float
    beta: float
    beta_max: float

    def __post_init__(self):
        for name in ("R", "eps", "beta", "beta_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"field {name!r}: must be finite")
        for name in ("R", "eps", "beta_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"field {name!r}: must be > 0")
        for name, lo in (("d", 1), ("d_prime", 0), ("beta", 0)):
            if getattr(self, name) < lo:
                raise ValueError(f"field {name!r}: must be >= {lo}")
        if self.eps > EPS_MAX:
            raise ValueError(f"field 'eps': must be <= {EPS_MAX:g}")

    @property
    def dim(self) -> int:
        return self.d + self.d_prime


def canonical_params(d: int = 8, d_prime: int = 8, beta: float | None = None) -> InstanceParams:
    """Desk-scale defaults: R=30, eps=1, beta=eps/40, beta_max=eps/4."""
    eps = 1.0
    return InstanceParams(d, d_prime, 30.0, eps, eps / 40 if beta is None else beta, eps / 4)


def phase_of_bit(b: int, eps: float) -> float:
    """Lattice phase: 0 for bit +1, eps/2 for bit -1."""
    return (eps / 2.0) * (1 - b) / 2.0


def lattice_atoms(eps: float, phase: float, extent: float = LATTICE_EXTENT):
    """Points {k*eps + phase : |point| <= extent} and their normalized unit-Gaussian weights.

    Both arrays are cached and read-only: copy one before changing it."""
    return _lattice_atoms(eps, phase, extent)


# Eight entries hold the two phases of a few instances; the heuristic's per-sigma extents
# (one per reverse step) cycle through it without growing it.
@functools.lru_cache(maxsize=8)
def _lattice_atoms(eps: float, phase: float, extent: float):
    k_lo = int(np.ceil((-extent - phase) / eps))
    k_hi = int(np.floor((extent - phase) / eps))
    pts = np.arange(k_lo, k_hi + 1) * eps + phase
    logw = -0.5 * pts**2
    w = np.exp(logw - logw.max())
    p = w / w.sum()
    pts.flags.writeable = p.flags.writeable = False
    return pts, p


def lattice_quantiles(bits: np.ndarray, eps: float, u: np.ndarray) -> np.ndarray:
    """u with each uniform replaced, in place, by its point of the unit Gaussian discretized
    to the phase-bit lattice: rng.choice's inverse CDF, one lookup per phase. bits has u's
    shape (one bit per uniform) or its leading shape (one bit per row of u)."""
    for bit in set(bits.ravel().tolist()):  # one lattice and one CDF per phase present
        pts, p = lattice_atoms(eps, phase_of_bit(bit, eps))
        cdf = p.cumsum()
        cdf /= cdf[-1]
        at = bits == bit
        u[at] = pts[cdf.searchsorted(u[at], side="right")]
    return u


def sample_discretized_gaussian(b, eps: float, rng: np.random.Generator, size: int):
    """Draw size values from the unit Gaussian discretized to the phase-b lattice; a bit
    array b gives shape (size, len(b)). It runs rng.choice's own inverse CDF, so draws and
    rng state equal those of one rng.choice(len(pts), size, p=p) per bit, bit by bit."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    bits = np.atleast_1d(b)
    x = lattice_quantiles(bits, eps, rng.random((len(bits), size)))
    return x[0] if np.ndim(b) == 0 else np.ascontiguousarray(x.T)


def sample_unconditional(
    params: InstanceParams,
    f: BooleanCircuit,
    rng: np.random.Generator,
    size: int,
):
    """Draw size pairs (s, x) with s uniform and x from the seed-s component."""
    s = signs(rng, (size, params.d))
    x = np.empty((size, params.dim))
    x[:, : params.d] = params.R * s + rng.standard_normal((size, params.d))
    bits = f(s)  # (n, d_prime)
    for b in (1, -1):
        mask = bits == b
        cnt = int(mask.sum())
        if cnt:
            x[:, params.d :][mask] = sample_discretized_gaussian(b, params.eps, rng, cnt)
    return s, x


def check_operator_norm(A: np.ndarray) -> np.ndarray:
    """A as a float array; raises ValueError unless its operator norm is at most 1 (tol 1e-9)."""
    A = np.asarray(A, dtype=float)
    if np.linalg.norm(A, 2) > 1.0 + 1e-9:
        raise ValueError("measurement matrix must have operator norm <= 1")
    return A


def measurement_matrix(params: InstanceParams) -> np.ndarray:
    """The canonical A = (0 | I) selecting the last dPrime coordinates."""
    A = np.zeros((params.d_prime, params.dim))
    A[:, params.d :] = np.eye(params.d_prime)
    return A


def clipped_noise(
    beta: float, beta_max: float, rng: np.random.Generator, shape
) -> np.ndarray:
    """beta*N(0,1) truncated to [-beta_max, beta_max], exactly, by the inverse CDF:
    u ~ U[Phi(-a), Phi(a)) with a = beta_max/beta; the clip only absorbs rounding."""
    if beta == 0:
        return np.zeros(shape)
    from scipy.special import ndtr, ndtri

    a = beta_max / beta
    eta = beta * ndtri(rng.uniform(ndtr(-a), ndtr(a), size=shape))
    return np.clip(eta, -beta_max, beta_max)


def measure_clipped(x: np.ndarray, params: InstanceParams, rng: np.random.Generator) -> np.ndarray:
    """Measurement under the bounded-noise channel: |noise| <= betaMax per coordinate."""
    x = np.asarray(x)
    tail = x[..., params.d :]
    return tail + clipped_noise(params.beta, params.beta_max, rng, tail.shape)


def round_R(v: np.ndarray, R: float) -> np.ndarray:
    """Nearest of {-R, +R} per coordinate, returned as signs; tie at 0 -> +1."""
    v = np.asarray(v)
    return np.where(v >= 0, 1, -1).astype(np.int64)


def bits_eps(y: np.ndarray, eps: float) -> np.ndarray:
    """Phase decoding: +1 if the nearest multiple of eps/2 has even index, else -1.

    Exact midpoint ties resolve toward the smaller |index|.
    """
    q = 2.0 * np.asarray(y) / eps
    j = np.sign(q) * np.ceil(np.abs(q) - 0.5)  # round half toward zero
    return np.where(np.mod(j, 2) == 0, 1, -1).astype(np.int64)
