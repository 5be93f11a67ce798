"""The lattice-mixture distribution family, its measurement channels, and decoders.

The family over R^(d+dPrime) is a uniform mixture over seeds s in {-1,+1}^d of
product distributions: the first d coordinates are N(R*s_i, 1); the last dPrime
coordinates are standard Gaussians discretized to the lattice {k*eps + phase}
with phase 0 (bit +1) or eps/2 (bit -1), the bit pattern being f(s) for a fixed
candidate map f. Measurements observe the last dPrime coordinates plus
beta*N(0, I) noise. A bounded-noise variant clips that noise to the decode radius
eps/4; only the checks of the bounded-noise reduction use it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .circuits import BooleanCircuit
from .rng import signs

LATTICE_EXTENT = 12.0  # mass of a unit Gaussian beyond |x| > 12 is < 1e-30
# Largest accepted eps. The series and lattice routes of the smoothed density agree
# to 4e-13 relative at eps 8, 1e-8 at 12 and only 1e-2 at 16 (spec: 1e-10); above
# 24 the bit -1 lattice has no atom within LATTICE_EXTENT at all.
EPS_MAX = 8.0
# Desk-scale instance defaults, the CLI's too: R=30, eps=1, beta=eps/40.
DEFAULT_R, DEFAULT_EPS = 30.0, 1.0
DEFAULT_BETA = DEFAULT_EPS / 40


@dataclass(frozen=True)
class InstanceParams:
    d: int
    d_prime: int
    R: float
    eps: float
    beta: float

    def __post_init__(self):
        for name in ("R", "eps", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"field {name!r}: must be finite")
        for name in ("R", "eps"):
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
    """Desk-scale defaults: R=30, eps=1, beta=eps/40."""
    beta = DEFAULT_BETA if beta is None else beta
    return InstanceParams(d, d_prime, DEFAULT_R, DEFAULT_EPS, beta)


def phase_of_bit(b: int, eps: float) -> float:
    """Lattice phase: 0 for bit +1, eps/2 for bit -1."""
    return (eps / 2.0) * (1 - b) / 2.0


def lattice_atoms(eps: float, phase: float, extent: float = LATTICE_EXTENT, log: bool = False):
    """Points {k*eps + phase : |point| <= extent} and their normalized unit-Gaussian weights p,
    or with log=True the points of positive p and their log p. The arrays are cached and
    read-only: copy one before changing it."""
    k_lo, k_hi = math.ceil((-extent - phase) / eps), math.floor((extent - phase) / eps)
    pts, p, log_pts, logp = _lattice_atoms(eps, phase, k_lo, k_hi)
    return (log_pts, logp) if log else (pts, p)


# Keyed by the atom range: the smoothed density's extent 12 + 8 rho is a new float at every
# reverse step, but its lattice route (rho < 0.35 eps) meets a few ranges per phase.
@functools.lru_cache(maxsize=16)
def _lattice_atoms(eps: float, phase: float, k_lo: int, k_hi: int):
    pts = np.arange(k_lo, k_hi + 1) * eps + phase
    logw = -0.5 * pts**2
    w = np.exp(logw - logw.max())
    p = w / w.sum()
    keep = p > 0  # the outer weights of a large extent underflow
    atoms = pts, p, pts[keep], np.log(p[keep])
    for a in atoms:
        a.flags.writeable = False
    return atoms


def _lattice_cdf(b: int, eps: float):
    """(pts, cdf) of the phase-b lattice: rng.choice's inverse CDF is
    pts[cdf.searchsorted(u, side="right")]."""
    pts, p = lattice_atoms(eps, phase_of_bit(b, eps))
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return pts, cdf


def lattice_quantiles(bits: np.ndarray, eps: float, u: np.ndarray) -> np.ndarray:
    """u with each uniform replaced, in place, by its point of the unit Gaussian discretized
    to the lattice of its bit (bits has u's shape): one inverse-CDF lookup per phase."""
    for bit in set(bits.ravel().tolist()):
        pts, cdf = _lattice_cdf(bit, eps)
        at = bits == bit
        u[at] = pts[cdf.searchsorted(u[at], side="right")]
    return u


def sample_discretized_gaussian(
    b: int,
    eps: float,
    rng: np.random.Generator | Sequence[np.random.Generator],
    size: int | Sequence[int],
):
    """Draw size values from the unit Gaussian discretized to the phase-b lattice. It runs
    rng.choice's own inverse CDF, so draws and rng state equal rng.choice(len(pts), size, p=p)'s.

    rng may be a sequence of distinct generators and size one size each: generator i draws
    rng[i].random(size[i]) as a lone call would, and the draws come back concatenated in order.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    gens, sizes = ([rng], [size]) if isinstance(rng, np.random.Generator) else (rng, size)
    if len(gens) != len(sizes):
        raise ValueError("one size per generator")
    u = np.concatenate([r.random(n) for r, n in zip(gens, sizes)])
    pts, cdf = _lattice_cdf(b, eps)
    return pts[cdf.searchsorted(u, side="right")]


def sample_unconditional(
    params: InstanceParams,
    f: BooleanCircuit,
    rng: np.random.Generator | Sequence[np.random.Generator],
    size: int,
):
    """Draw size pairs (s, x) with s uniform and x from the seed-s component.

    rng may be a sequence of k distinct generators (one listed twice would interleave its
    blocks' draws), k dividing size: generator i draws rows i*size/k to (i+1)*size/k in a lone
    call's order (signs, head normals, bit +1 then bit -1 lattice uniforms), and f and each
    lattice lookup run once on all rows.
    """
    gens = [rng] if isinstance(rng, np.random.Generator) else rng
    b, left = divmod(size, len(gens))
    if left:
        raise ValueError("size must be a multiple of the number of generators")
    s, z = np.empty((size, params.d), dtype=np.int64), np.empty((size, params.d))
    for i, r in enumerate(gens):
        s[i * b : (i + 1) * b] = signs(r, (b, params.d))
        r.standard_normal(out=z[i * b : (i + 1) * b])
    x = np.empty((size, params.dim))
    np.add(params.R * s, z, out=x[:, : params.d])
    bits, tail = f(s), x[:, params.d :]  # (n, d_prime) each
    for bit in (1, -1):
        mask = bits == bit
        counts = np.count_nonzero(mask.reshape(len(gens), b * params.d_prime), axis=1)
        if counts.any():
            tail[mask] = sample_discretized_gaussian(bit, params.eps, gens, counts)
    return s, x


def check_operator_norm(A: np.ndarray) -> np.ndarray:
    """A as a float array; raises ValueError unless its operator norm is at most 1 (tol 1e-9)."""
    A = np.asarray(A, dtype=float)  # svd[0] is np.linalg.norm(A, 2); an empty A has norm 0
    if A.size and np.linalg.svd(A, compute_uv=False)[0] > 1.0 + 1e-9:
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
    """Measurement under the bounded-noise channel: |noise| <= eps/4, bits_eps's decode radius."""
    x = np.asarray(x)
    tail = x[..., params.d :]
    return tail + clipped_noise(params.beta, params.eps / 4, rng, tail.shape)


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
