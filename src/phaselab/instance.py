"""The lattice-mixture distribution family, its measurement channels, and decoders.

The family over R^(d+dPrime) is a uniform mixture over seeds s in {-1,+1}^d of
product distributions: the first d coordinates are N(R*s_i, 1); the last dPrime
coordinates are standard Gaussians discretized to the lattice {k*eps + phase}
with phase 0 (bit +1) or eps/2 (bit -1), the bit pattern being f(s) for a fixed
candidate map f. Measurements observe the last dPrime coordinates plus
beta*N(0, I) noise (optionally clipped to [-betaMax, betaMax]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .circuits import OneWayCandidate

LATTICE_EXTENT = 12.0  # mass of a unit Gaussian beyond |x| > 12 is < 1e-30


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
                raise ValueError(f"field {name!r} must be finite")
        for name in ("R", "eps", "beta_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"field {name!r} must be > 0")
        for name, lo in (("d", 1), ("d_prime", 0), ("beta", 0)):
            if getattr(self, name) < lo:
                raise ValueError(f"field {name!r} must be >= {lo}")

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
    """Points {k*eps + phase : |point| <= extent} and their normalized unit-Gaussian weights."""
    k_lo = int(np.ceil((-extent - phase) / eps))
    k_hi = int(np.floor((extent - phase) / eps))
    pts = np.arange(k_lo, k_hi + 1) * eps + phase
    logw = -0.5 * pts**2
    w = np.exp(logw - logw.max())
    return pts, w / w.sum()


def sample_discretized_gaussian(b: int, eps: float, rng: np.random.Generator, size: int):
    """Draw size values from the unit Gaussian discretized to the phase-b lattice."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts, p = lattice_atoms(eps, phase_of_bit(b, eps))
    idx = rng.choice(len(pts), size=size, p=p)
    return pts[idx]


def sample_unconditional(
    params: InstanceParams,
    f: OneWayCandidate,
    rng: np.random.Generator,
    size: int,
):
    """Draw size pairs (s, x) with s uniform and x from the seed-s component."""
    s = rng.choice(np.array([-1, 1]), size=(size, params.d))
    x = np.empty((size, params.dim))
    x[:, : params.d] = params.R * s + rng.standard_normal((size, params.d))
    bits = f(s)  # (n, d_prime)
    eps = params.eps
    for b in (1, -1):
        pts, p = lattice_atoms(eps, phase_of_bit(b, eps))
        mask = bits == b
        cnt = int(mask.sum())
        if cnt:
            x[:, params.d :][mask] = pts[rng.choice(len(pts), size=cnt, p=p)]
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
