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
        if self.d < 1 or self.d_prime < 0:
            raise ValueError("require d >= 1 and d_prime >= 0")
        if self.eps <= 0 or self.R <= 0 or self.beta_max <= 0 or self.beta < 0:
            raise ValueError("require eps > 0, R > 0, beta_max > 0, beta >= 0")

    @property
    def dim(self) -> int:
        return self.d + self.d_prime

    def to_text(self) -> str:
        return (
            f"d = {self.d}\nd_prime = {self.d_prime}\nR = {self.R!r}\n"
            f"eps = {self.eps!r}\nbeta = {self.beta!r}\nbeta_max = {self.beta_max!r}\n"
        )

    @classmethod
    def from_text(cls, text: str) -> "InstanceParams":
        kv = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            kv[key.strip()] = val.strip()
        return cls(
            d=int(kv["d"]),
            d_prime=int(kv["d_prime"]),
            R=float(kv["R"]),
            eps=float(kv["eps"]),
            beta=float(kv["beta"]),
            beta_max=float(kv["beta_max"]),
        )


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


def sample_discretized_gaussian(b: int, eps: float, rng: np.random.Generator, size=None):
    """Draw from the unit Gaussian discretized to the phase-b lattice."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts, p = lattice_atoms(eps, phase_of_bit(b, eps))
    idx = rng.choice(len(pts), size=size, p=p)
    return pts[idx]


def sample_component(
    s: np.ndarray,
    params: InstanceParams,
    f: OneWayCandidate,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Draw from the product component for seed s; shape (size, d+dPrime) or (d+dPrime,)."""
    s = np.asarray(s)
    if s.shape != (params.d,):
        raise ValueError("seed length mismatch")
    n = 1 if size is None else size
    x = np.empty((n, params.dim))
    x[:, : params.d] = params.R * s + rng.standard_normal((n, params.d))
    bits = f(s)
    for j in range(params.d_prime):
        x[:, params.d + j] = sample_discretized_gaussian(int(bits[j]), params.eps, rng, size=n)
    return x[0] if size is None else x


def sample_unconditional(
    params: InstanceParams,
    f: OneWayCandidate,
    rng: np.random.Generator,
    size: int | None = None,
    scaled: bool = False,
):
    """Draw (s, x) with s uniform and x from the seed-s component; scaled divides x by R."""
    n = 1 if size is None else size
    s = rng.choice(np.array([-1, 1]), size=(n, params.d))
    x = np.empty((n, params.dim))
    x[:, : params.d] = params.R * s + rng.standard_normal((n, params.d))
    bits = f(s)  # (n, d_prime)
    eps = params.eps
    for b in (1, -1):
        pts, p = lattice_atoms(eps, phase_of_bit(b, eps))
        mask = bits == b
        cnt = int(mask.sum())
        if cnt:
            x[:, params.d :][mask] = pts[rng.choice(len(pts), size=cnt, p=p)]
    if scaled:
        x = x / params.R
    if size is None:
        return s[0], x[0]
    return s, x


def measure(x: np.ndarray, params: InstanceParams, rng: np.random.Generator) -> np.ndarray:
    """y = last dPrime coordinates of x plus beta*N(0, I)."""
    x = np.asarray(x)
    tail = x[..., params.d :]
    if tail.shape[-1] != params.d_prime:
        raise ValueError("sample dimension mismatch")
    return tail + params.beta * rng.standard_normal(tail.shape)


def check_operator_norm(A: np.ndarray) -> np.ndarray:
    """A as a float array; raises ValueError unless its operator norm is at most 1 (tol 1e-9)."""
    A = np.asarray(A, dtype=float)
    if np.linalg.norm(A, 2) > 1.0 + 1e-9:
        raise ValueError("measurement matrix must have operator norm <= 1")
    return A


def measure_general(
    A: np.ndarray, x: np.ndarray, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """y = A x + beta*N(0, I); requires operator norm of A at most 1 (tol 1e-9)."""
    y = np.asarray(x) @ check_operator_norm(A).T
    return y + beta * rng.standard_normal(y.shape)


def measurement_matrix(params: InstanceParams) -> np.ndarray:
    """The canonical A = (0 | I) selecting the last dPrime coordinates."""
    A = np.zeros((params.d_prime, params.dim))
    A[:, params.d :] = np.eye(params.d_prime)
    return A


def clipped_noise(
    beta: float, beta_max: float, rng: np.random.Generator, shape
) -> np.ndarray:
    """beta*N(0,1) truncated to [-beta_max, beta_max] by rejection (exact)."""
    eta = beta * rng.standard_normal(shape)
    bad = np.abs(eta) > beta_max
    while bad.any():
        eta[bad] = beta * rng.standard_normal(int(bad.sum()))
        bad = np.abs(eta) > beta_max
    return eta


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
