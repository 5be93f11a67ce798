"""Variance-exploding forward process and discretized reverse-SDE sampler.

Forward: x_t ~ x_0 + N(0, t I). Reverse: Euler-Maruyama on a geometric time
grid t_k = T*(tMin/T)^(k/N), stepping downward:
x <- x + h*score(sqrt(t), x) + sqrt(h)*N(0, I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import InstanceParams, lattice_atoms, phase_of_bit
from .scores import ScoreProvider


@dataclass(frozen=True)
class DiffusionConfig:
    T: float
    t_min: float = 1e-4
    N: int = 2000

    def __post_init__(self):
        if not (self.T > self.t_min > 0):
            raise ValueError("require T > t_min > 0")
        if self.N < 0:
            raise ValueError("N must be nonnegative")


def geometric_grid(cfg: DiffusionConfig) -> np.ndarray:
    """Strictly decreasing times T = t_0 > ... > t_N = t_min."""
    k = np.arange(cfg.N + 1)
    return cfg.T * (cfg.t_min / cfg.T) ** (k / max(cfg.N, 1))


def coordinate_second_moment(params: InstanceParams) -> float:
    """Mean per-coordinate E[x^2] of the unscaled family."""
    head = params.R**2 + 1.0
    tails = []
    for b in (1, -1):
        pts, p = lattice_atoms(params.eps, phase_of_bit(b, params.eps))
        tails.append(float(p @ pts**2))
    tail = float(np.mean(tails))
    return (params.d * head + params.d_prime * tail) / params.dim


def default_config(params: InstanceParams, N: int = 2000, t_min: float = 1e-4) -> DiffusionConfig:
    return DiffusionConfig(T=10.0 * coordinate_second_moment(params), t_min=t_min, N=N)


def reverse_run(
    provider: ScoreProvider,
    cfg: DiffusionConfig,
    rng: np.random.Generator,
    size: int,
    init: np.ndarray | None = None,
    dim: int | None = None,
    extra_drift=None,
) -> np.ndarray:
    """Run size independent chains of the discretized reverse SDE down to t_min.

    Returns the final states, shape (size, dim). extra_drift(t, x), if given,
    is added to the score (posterior guidance).
    """
    if init is None:
        if dim is None:
            raise ValueError("need dim or init")
        x = np.sqrt(cfg.T) * rng.standard_normal((size, dim))
    else:
        init = np.asarray(init, dtype=float)
        x = np.broadcast_to(init, (size,) + init.shape[-1:]).copy()
    times = geometric_grid(cfg)
    for k in range(cfg.N):
        t, t_next = times[k], times[k + 1]
        h = t - t_next
        drift = provider(np.sqrt(t), x)
        if extra_drift is not None:
            drift = drift + extra_drift(t, x)
        x = x + h * drift + np.sqrt(h) * rng.standard_normal(x.shape)
    return x

