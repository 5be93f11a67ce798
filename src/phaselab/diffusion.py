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

DEFAULT_STEPS = 2000  # reverse-SDE steps N
DEFAULT_T_MIN = 1e-4  # the grid's last time


@dataclass(frozen=True)
class DiffusionConfig:
    T: float
    t_min: float = DEFAULT_T_MIN
    N: int = DEFAULT_STEPS

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


def default_config(params: InstanceParams, N: int = DEFAULT_STEPS) -> DiffusionConfig:
    return DiffusionConfig(T=10.0 * coordinate_second_moment(params), N=N)


def reverse_run(
    provider: ScoreProvider,
    cfg: DiffusionConfig,
    rng: np.random.Generator,
    size: int,
    dim: int,
    extra_drift=None,
) -> np.ndarray:
    """Run size independent chains of the discretized reverse SDE from sqrt(T) N(0, I)
    down to t_min.

    Returns the final states, shape (size, dim). extra_drift(t, x), if given,
    is added to the score (posterior guidance).
    """
    x = np.sqrt(cfg.T) * rng.standard_normal((size, dim))
    times = geometric_grid(cfg)
    t, h = times[:-1], times[:-1] - times[1:]  # sqrt(t) and sqrt(h) too: once per grid
    for t_k, sigma, h_k, noise in zip(t, np.sqrt(t), h, np.sqrt(h)):
        drift = provider(sigma, x)
        if extra_drift is not None:
            drift = drift + extra_drift(t_k, x)
        x = x + h_k * drift + noise * rng.standard_normal(x.shape)
    return x

