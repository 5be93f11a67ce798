import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from phaselab.circuits import constant_candidate, no_output_candidate, sign_identity
from phaselab.instance import canonical_params, phase_of_bit
from phaselab.posterior import seed_posterior_log_weights
from phaselab.reduction import random_circuit_owf
from phaselab.scores import (
    DiscreteGaussianSpec,
    ScoreProvider,
    dg_smoothed_density,
    dg_smoothed_log_density,
    dg_smoothed_score,
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


def tensor_mixture_score(params, f, sigma, X):
    """Reference: the per-seed (n, 2^d, d) head tensor and a per-coordinate tail gather."""
    S, F = f.seed_table
    S = S.astype(float)
    v = 1.0 + sigma**2
    head, tail = X[:, : params.d], X[:, params.d :]
    specs = [DiscreteGaussianSpec(params.eps, phase_of_bit(b, params.eps), sigma) for b in (1, -1)]
    ld = np.stack([dg_smoothed_log_density(spec, tail) for spec in specs])
    sc = np.stack([dg_smoothed_score(spec, tail) for spec in specs])
    diff = head[:, None, :] - params.R * S[None, :, :]
    loglik = -(diff**2).sum(axis=2) / (2.0 * v) - params.d * 0.5 * np.log(2.0 * np.pi * v)
    for j in range(params.d_prime):
        loglik += ld[(1 - F[:, j]) // 2, :, j].T
    with np.errstate(invalid="ignore"):
        log_mix = logsumexp(loglik, axis=1) - params.d * np.log(2.0)
        w = np.exp(loglik - loglik.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
    out = np.empty_like(X)
    out[:, : params.d] = (-head + params.R * (w @ S)) / v
    for j in range(params.d_prime):
        wp = w @ (F[:, j] == 1).astype(float)
        out[:, params.d + j] = wp * sc[0, :, j] + (1.0 - wp) * sc[1, :, j]
    return out, log_mix


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.one_of(st.floats(0.01, 0.34), st.floats(0.36, 6.0)),  # lattice and series routes
    st.integers(1, 40),
    st.booleans(),
    st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_mixture_score_matches_per_seed_tensor_formula(d, d_prime, sigma, n, single, seed):
    params = canonical_params(d, d_prime)
    f = random_circuit_owf(d, d_prime, 2 * d_prime, seed)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d + d_prime)) * (1.0 + sigma)
    X[:, :d] += params.R * rng.choice([-1.0, 0.0, 1.0], size=(n, d))
    X[:, d:] += rng.integers(-3, 4, size=(n, d_prime)) * params.eps / 2
    want, want_log = tensor_mixture_score(params, f, sigma, X)
    if single:
        X, want, want_log = X[0], want[0], want_log[0]
    got, got_log = mixture_score_exact(params, f, sigma, X, return_log_density=True)
    assert got.shape == X.shape
    assert_allclose(got, want, atol=1e-9, rtol=1e-12)
    assert_allclose(got_log, want_log, atol=1e-9, rtol=0)


@pytest.mark.filterwarnings("error")
def test_mixture_score_gives_ruled_out_seeds_zero_weight():
    """At sigma = 0.01 a tail coordinate on an eps/2-phase atom rules out bit +1 there."""
    params = canonical_params(2, 2)
    sigma = 0.01
    x = np.array([30.0, 30.0, 0.5, 0.25])  # coordinate 2: eps/2 from every phase-0 atom
    score = mixture_score_exact(params, sign_identity(2), sigma, x)
    assert np.all(np.isfinite(score))
    # no weight on the seeds with s_0 = +1, though the head favours them by e^1800
    minus = DiscreteGaussianSpec(params.eps, phase_of_bit(-1, params.eps), sigma)
    assert score[2] == dg_smoothed_score(minus, np.array([0.5]))[0]
    assert_allclose(score[0], (-30.0 - params.R) / (1.0 + sigma**2), rtol=1e-12)
    # the brute-force oracle's seed weights come from the same tail term
    logw = seed_posterior_log_weights(canonical_params(2, 2, beta=sigma), sign_identity(2), x[2:])
    plus = sign_identity(2).seed_table[1][:, 0] == 1
    assert np.all(np.isneginf(logw[plus])) and np.all(np.isfinite(logw[~plus]))


@pytest.mark.filterwarnings("error")
def test_exact_score_provider_raises_where_every_seed_is_ruled_out():
    params = canonical_params(2, 2)
    f = constant_candidate(2, np.array([1, 1]))  # every seed has bit +1 everywhere
    x = np.array([30.0, 30.0, 0.5, 0.0])
    with pytest.raises(FloatingPointError):
        provider_by_name("exact", params, f)(0.01, x)


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


def test_orthant_score_runs_one_lattice_sum_per_phase(monkeypatch):
    """The orthant surrogate reads only the phase scores, never their log densities."""
    from phaselab import scores

    calls = []
    parts = scores._dg_lattice_parts
    monkeypatch.setattr(scores, "_dg_lattice_parts", lambda *a: calls.append(1) or parts(*a))
    params = canonical_params(2, 2)
    x = np.random.default_rng(3).standard_normal((20, 4))
    orthant_score(params, sign_identity(2), 0.1, x)  # sigma < 0.35 eps: the lattice route
    assert len(calls) == 2


def test_large_sigma_score_approaches_exact():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(12)
    sigma = 40.0
    x = sigma * rng.standard_normal((50, 4))
    exact = mixture_score_exact(params, f, sigma, x)
    assert_allclose(large_sigma_score(params, sigma, x), exact, atol=2e-4)


def test_provider_raises_on_nonfinite():
    p = ScoreProvider("bad", lambda s, x: x * np.inf)
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
    ls = provider_by_name("large-sigma", params, f)
    assert_allclose(ls(20.0, x), large_sigma_score(params, 20.0, x))
    with pytest.raises(ValueError):
        provider_by_name("nope", params, f)


def test_provider_file_round_trip(tmp_path):
    from phaselab.piecewise import PiecewiseLinear
    from phaselab.relu import compile_piecewise, network_to_text

    l = PiecewiseLinear(np.array([-1.0, 0.0, 2.0]), np.array([0.5, -0.3, 1.0]), 0.2, -0.1)
    (tmp_path / "l.csv").write_text(l.to_csv())
    (tmp_path / "n.txt").write_text(network_to_text(compile_piecewise(l)))
    x = np.linspace(-3, 4, 201)
    params, f = canonical_params(1, 0), no_output_candidate(1)
    pw = provider_by_name(f"piecewise:{tmp_path / 'l.csv'}", params, f)
    assert_allclose(pw(1.0, x), l(x), rtol=1e-12)
    net = provider_by_name(f"relu:{tmp_path / 'n.txt'}", params, f)
    assert_allclose(net(1.0, x[:, None])[:, 0], l(x), atol=1e-12)


def test_tail_phases_differ():
    """The two phase lattices are distinguishable at moderate smoothing."""
    eps = 1.0
    x = np.linspace(-2, 2, 201)
    d0 = dg_smoothed_density(DiscreteGaussianSpec(eps, phase_of_bit(1, eps), 0.2), x)
    d1 = dg_smoothed_density(DiscreteGaussianSpec(eps, phase_of_bit(-1, eps), 0.2), x)
    assert np.max(np.abs(d0 - d1)) > 0.5
