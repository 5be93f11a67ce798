import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from phaselab.circuits import sign_identity
from phaselab.diagnostics import ks
from phaselab.diffusion import (
    DiffusionConfig,
    coordinate_second_moment,
    default_config,
    geometric_grid,
    reverse_run,
)
from phaselab import instance
from phaselab.instance import canonical_params
from phaselab.scores import ScoreProvider, provider_by_name


def test_config_validation():
    with pytest.raises(ValueError):
        DiffusionConfig(T=1.0, t_min=2.0)
    with pytest.raises(ValueError):
        DiffusionConfig(T=1.0, t_min=0.0)


def test_geometric_grid_endpoints_and_monotone():
    cfg = DiffusionConfig(T=100.0, t_min=1e-4, N=500)
    t = geometric_grid(cfg)
    assert_allclose(t[0], 100.0)
    assert_allclose(t[-1], 1e-4)
    assert np.all(np.diff(t) < 0)
    # geometric: constant ratio between consecutive times
    assert_allclose(np.diff(np.log(t)), np.diff(np.log(t))[0])


def test_coordinate_second_moment():
    params = canonical_params(2, 2)
    m2 = coordinate_second_moment(params)
    # head coordinates dominate: E[x^2] = R^2 + 1 there, ~1 on the tail
    assert 0.4 * (params.R**2 + 1) < m2 < params.R**2 + 1
    assert_allclose(default_config(params).T, 10.0 * m2)


def test_zero_score_accumulates_brownian_variance():
    """With score = 0 the reverse pass just adds N(0, T - t_min) to its sqrt(T) N(0, 1) start."""
    cfg = DiffusionConfig(T=9.0, t_min=1e-3, N=800)
    zero = ScoreProvider("zero", lambda s, x: np.zeros_like(x))
    rng = np.random.default_rng(1)
    out = reverse_run(zero, cfg, rng, size=100_000, dim=1)
    assert_allclose(out.std(), np.sqrt(9.0 + (9.0 - 1e-3)), rtol=0.02)


def test_gaussian_score_reverse_run_ks():
    """Exact N(0,1) score: the reverse SDE reproduces a standard Gaussian."""
    cfg = DiffusionConfig(T=100.0, t_min=1e-4, N=2000)
    gauss = ScoreProvider("gauss", lambda s, x: -x / (1.0 + s**2))
    rng = np.random.default_rng(2)
    out = reverse_run(gauss, cfg, rng, dim=1, size=20_000)[:, 0]
    assert ks(out, norm.cdf) <= 0.02


def test_reverse_run_single_chain_shape():
    gauss = ScoreProvider("gauss", lambda s, x: -x / (1.0 + s**2))
    rng = np.random.default_rng(3)
    cfg = DiffusionConfig(T=10.0, t_min=1e-3, N=50)
    assert reverse_run(gauss, cfg, rng, dim=3, size=7).shape == (7, 3)


def test_extra_drift_shifts_mean():
    """A constant extra drift c integrates to roughly c*(T - t_min)."""
    cfg = DiffusionConfig(T=4.0, t_min=1e-3, N=2000)
    zero = ScoreProvider("zero", lambda s, x: np.zeros_like(x))
    rng = np.random.default_rng(4)
    out = reverse_run(
        zero, cfg, rng, size=50_000, dim=1, extra_drift=lambda t, x: np.full_like(x, 0.5)
    )
    assert_allclose(out.mean(), 0.5 * 4.0, atol=0.05)


def test_seed_determinism():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    from phaselab.scores import provider_by_name

    provider = provider_by_name("exact", params, f)
    cfg = DiffusionConfig(T=10.0, t_min=1e-2, N=30)
    a = reverse_run(provider, cfg, np.random.default_rng(9), dim=params.dim, size=4)
    b = reverse_run(provider, cfg, np.random.default_rng(9), dim=params.dim, size=4)
    assert_allclose(a, b, rtol=0, atol=0)


def test_exact_reverse_run_misses_lattice_atoms_once_per_atom_range():
    """The lattice route asks for atoms within 12 + 8 sigma, a new extent at every step below
    sigma = 0.35 eps; the cache is keyed by the atom range those extents give, so one chain
    misses it at most once per distinct (phase, k_lo, k_hi)."""
    params = canonical_params(2, 2)
    cfg = default_config(params)
    provider = provider_by_name("exact", params, sign_identity(2))
    sig = np.sqrt(geometric_grid(cfg)[:-1])
    ranges = {
        (ph, int(np.ceil((-e - ph) / params.eps)), int(np.floor((e - ph) / params.eps)))
        for e in 12.0 + 8.0 * sig[sig < 0.35 * params.eps]
        for ph in (0.0, params.eps / 2)
    }
    instance._lattice_atoms.cache_clear()
    reverse_run(provider, cfg, np.random.default_rng(0), size=1, dim=params.dim)
    assert 0 < instance._lattice_atoms.cache_info().misses <= len(ranges) < 16
