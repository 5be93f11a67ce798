import numpy as np
import pytest
from numpy.testing import assert_allclose

from phaselab.circuits import sign_identity
from phaselab.instance import canonical_params, phase_of_bit
from phaselab.scores import (
    DiscreteGaussianSpec,
    ScoreProvider,
    dg_smoothed_density,
    dg_smoothed_log_density,
    dg_smoothed_score,
    exact_provider,
    gaussian_smoothed_score,
    large_sigma_score,
    mixture_score_exact,
    orthant_score,
    provider_by_name,
    two_point_log_density,
    two_point_score,
)


def fd(logd, x, h=1e-6):
    """Central finite difference of a log density; the score oracle."""
    return (logd(x + h) - logd(x - h)) / (2 * h)


def test_gaussian_smoothed_score_analytic():
    x = np.linspace(-4, 4, 101)
    assert_allclose(gaussian_smoothed_score(1.5, 2.0, 0.7, x), -(x - 1.5) / (2.0 + 0.49))


def test_dg_series_matches_lattice():
    """Both evaluation routes agree far below the 1e-10 requirement."""
    for eps, rho in [(1.0, 0.5), (0.5, 0.4), (1.0, 2.0)]:
        for phase in (0.0, eps / 2):
            spec = DiscreteGaussianSpec(eps, phase, rho)
            x = np.linspace(-8, 8, 801)
            assert_allclose(
                dg_smoothed_density(spec, x, method="series"),
                dg_smoothed_density(spec, x, method="lattice"),
                atol=1e-10,
            )
            assert_allclose(
                dg_smoothed_score(spec, x, method="series"),
                dg_smoothed_score(spec, x, method="lattice"),
                atol=1e-8,
            )


def test_dg_density_integrates_to_one():
    spec = DiscreteGaussianSpec(1.0, 0.5, 0.7)
    x = np.linspace(-14, 14, 20_001)
    mass = np.trapezoid(dg_smoothed_density(spec, x), x)
    assert_allclose(mass, 1.0, rtol=1e-8)


def test_dg_score_is_log_density_gradient():
    for rho in (0.2, 0.8, 3.0):
        spec = DiscreteGaussianSpec(1.0, 0.0, rho)
        x = np.linspace(-3, 3, 41)
        want = fd(lambda t: dg_smoothed_log_density(spec, t), x)
        assert_allclose(dg_smoothed_score(spec, x), want, atol=1e-4)


def test_dg_large_smoothing_approaches_plain_gaussian():
    """At rho >> eps the lattice is invisible: score ~ Gaussian with var 1 + rho^2."""
    spec = DiscreteGaussianSpec(0.5, 0.25, 8.0)
    x = np.linspace(-10, 10, 101)
    assert_allclose(dg_smoothed_score(spec, x), -x / (1 + 64.0), atol=1e-4)


def test_dg_small_smoothing_pulls_to_lattice():
    """Slightly off an atom, the score points back toward it."""
    spec = DiscreteGaussianSpec(1.0, 0.0, 0.05)
    assert dg_smoothed_score(spec, np.array([0.1]))[0] < -20
    assert dg_smoothed_score(spec, np.array([-0.1]))[0] > 20


def test_dg_rejects_atomic():
    with pytest.raises(ValueError):
        dg_smoothed_score(DiscreteGaussianSpec(1.0, 0.0, 0.0), np.zeros(1))


def test_mixture_score_matches_log_density_gradient():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((20, 4)) * 3.0
    x[:, :2] += 30.0 * np.sign(rng.standard_normal((20, 2)))
    for sigma in (0.5, 2.0):
        sc = mixture_score_exact(params, f, sigma, x)
        for j in range(4):
            def logd(t, j=j, sigma=sigma):
                xs = x.copy()
                xs[:, j] = t
                return mixture_score_exact(params, f, sigma, xs, return_log_density=True)[1]

            assert_allclose(sc[:, j], fd(logd, x[:, j]), rtol=1e-4, atol=1e-4)


def test_mixture_score_single_point_shape():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    x = np.array([30.0, -30.0, 0.2, 0.7])
    assert mixture_score_exact(params, f, 1.0, x).shape == (4,)


def test_two_point_score_matches_log_density_gradient():
    x = np.linspace(-8, 8, 81)
    want = fd(lambda t: two_point_log_density(4.0, 0.6, t), x)
    assert_allclose(two_point_score(4.0, 0.6, x), want, atol=1e-5)


def test_orthant_score_agrees_deep_in_orthant():
    """Far from the decision boundary the orthant surrogate is the exact score."""
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 4))
    x[:, :2] += 30.0 * np.sign(rng.standard_normal((50, 2)))
    assert_allclose(
        orthant_score(params, f, 0.5, x), mixture_score_exact(params, f, 0.5, x), atol=1e-8
    )


def test_large_sigma_score_approaches_exact():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(12)
    sigma = 40.0
    x = sigma * rng.standard_normal((50, 4))
    exact = mixture_score_exact(params, f, sigma, x)
    assert_allclose(large_sigma_score(params, sigma, x), exact, atol=2e-4)


def test_provider_raises_on_nonfinite():
    p = ScoreProvider("bad", lambda s, x: x * np.inf, 1)
    with pytest.raises(FloatingPointError):
        p(1.0, np.ones(3))


def test_provider_registry_names():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    x = np.array([[30.0, 30.0, 0.1, 0.6]])
    exact = provider_by_name("exact", params, f)
    assert_allclose(exact(1.0, x), mixture_score_exact(params, f, 1.0, x))
    orth = provider_by_name("orthant", params, f)
    assert_allclose(orth(1.0, x), orthant_score(params, f, 1.0, x))
    ls = provider_by_name("large-sigma", params)
    assert_allclose(ls(20.0, x), large_sigma_score(params, 20.0, x))
    with pytest.raises(ValueError):
        provider_by_name("nope")


def test_provider_file_round_trip(tmp_path):
    from phaselab.piecewise import PiecewiseLinear
    from phaselab.relu import compile_piecewise, network_to_text

    l = PiecewiseLinear(np.array([-1.0, 0.0, 2.0]), np.array([0.5, -0.3, 1.0]), 0.2, -0.1)
    (tmp_path / "l.csv").write_text(l.to_csv())
    (tmp_path / "n.txt").write_text(network_to_text(compile_piecewise(l)))
    x = np.linspace(-3, 4, 201)
    pw = provider_by_name(f"piecewise:{tmp_path / 'l.csv'}")
    assert_allclose(pw(1.0, x), l(x), rtol=1e-12)
    net = provider_by_name(f"relu:{tmp_path / 'n.txt'}")
    assert_allclose(net(1.0, x[:, None])[:, 0], l(x), atol=1e-12)


def test_tail_phases_differ():
    """The two phase lattices are distinguishable at moderate smoothing."""
    eps = 1.0
    x = np.linspace(-2, 2, 201)
    d0 = dg_smoothed_density(DiscreteGaussianSpec(eps, phase_of_bit(1, eps), 0.2), x)
    d1 = dg_smoothed_density(DiscreteGaussianSpec(eps, phase_of_bit(-1, eps), 0.2), x)
    assert np.max(np.abs(d0 - d1)) > 0.5
