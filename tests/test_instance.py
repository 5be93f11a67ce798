import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaselab.circuits import sign_identity
from phaselab.instance import (
    InstanceParams,
    bits_eps,
    canonical_params,
    clipped_noise,
    lattice_atoms,
    measure,
    measure_clipped,
    measure_general,
    measurement_matrix,
    phase_of_bit,
    round_R,
    sample_component,
    sample_discretized_gaussian,
    sample_unconditional,
)


def test_params_validation():
    with pytest.raises(ValueError):
        InstanceParams(0, 2, 30.0, 1.0, 0.1, 0.25)
    with pytest.raises(ValueError):
        InstanceParams(2, 2, 30.0, -1.0, 0.1, 0.25)
    for field, args in (
        ("R", (np.inf, 1.0, 0.1, 0.25)),
        ("eps", (30.0, np.nan, 0.1, 0.25)),
        ("beta", (30.0, 1.0, np.nan, 0.25)),
        ("beta_max", (30.0, 1.0, 0.1, np.inf)),
    ):
        with pytest.raises(ValueError, match=f"'{field}' must be finite"):
            InstanceParams(2, 2, *args)
    p = InstanceParams(1, 0, 4.0, 1.0, 0.1, 0.25)
    assert p.dim == 1


def test_params_text_round_trip():
    p = canonical_params(3, 5)
    assert InstanceParams.from_text(p.to_text()) == p


def test_phase_of_bit():
    assert phase_of_bit(1, 0.8) == 0.0
    assert phase_of_bit(-1, 0.8) == 0.4


def test_lattice_atoms_normalized_and_symmetric():
    pts, p = lattice_atoms(1.0, 0.0)
    assert_allclose(p.sum(), 1.0, rtol=1e-15)
    # phase 0 lattice is symmetric about the origin
    assert_allclose(p, p[::-1], rtol=1e-14)
    assert_allclose(pts @ p, 0.0, atol=1e-16)


def test_lattice_atoms_match_gaussian_weights():
    """Atom weights are proportional to the unit Gaussian density at the atoms."""
    pts, p = lattice_atoms(0.7, 0.35)
    w = np.exp(-0.5 * pts**2)
    assert_allclose(p, w / w.sum(), rtol=1e-13)


def test_discretized_gaussian_moments():
    rng = np.random.default_rng(7)
    x = sample_discretized_gaussian(-1, 1.0, rng, size=200_000)
    pts, p = lattice_atoms(1.0, 0.5)
    assert_allclose(x.mean(), pts @ p, atol=0.02)
    assert_allclose(np.mean(x**2), p @ pts**2, atol=0.03)
    # every draw sits on the phased lattice
    assert np.allclose((x - 0.5) / 1.0, np.round((x - 0.5) / 1.0))


def test_round_R_values_and_ties():
    assert np.array_equal(round_R(np.array([3.0, -0.2, 0.0]), 30.0), [1, -1, 1])


def test_bits_eps_decodes_clean_lattice_points():
    eps = 1.0
    pts0, _ = lattice_atoms(eps, 0.0)
    pts1, _ = lattice_atoms(eps, 0.5)
    assert np.all(bits_eps(pts0, eps) == 1)
    assert np.all(bits_eps(pts1, eps) == -1)


def test_bits_eps_robust_to_small_noise():
    """Noise below eps/4 in magnitude never flips a decoded bit."""
    rng = np.random.default_rng(3)
    eps = 0.6
    for b in (1, -1):
        pts, _ = lattice_atoms(eps, phase_of_bit(b, eps))
        noise = rng.uniform(-eps / 4 + 1e-9, eps / 4 - 1e-9, size=(50, pts.size))
        decoded = bits_eps(pts + noise, eps)
        assert np.all(decoded == b)


@given(st.integers(1, 6), st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_decode_chain_clipped_channel(d, seed):
    """f(round_R(x)) equals bits_eps(y) under the bounded-noise channel."""
    params = canonical_params(d, d)
    f = sign_identity(d)
    rng = np.random.default_rng(seed)
    s, x = sample_unconditional(params, f, rng, size=64)
    y = measure_clipped(x, params, rng)
    assert np.array_equal(f(round_R(x[:, :d], params.R)), bits_eps(y, params.eps))


def test_sample_component_matches_seed():
    params = canonical_params(4, 4)
    f = sign_identity(4)
    rng = np.random.default_rng(11)
    s = np.array([1, -1, -1, 1])
    x = sample_component(s, params, f, rng, size=5000)
    assert x.shape == (5000, 8)
    assert_allclose(x[:, :4].mean(axis=0), params.R * s, atol=0.1)
    # tail coordinates decode back to f(s)
    assert np.array_equal(bits_eps(x[:, 4:], params.eps), np.tile(f(s), (5000, 1)))


def test_sample_unconditional_scaled():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(0)
    s, x = sample_unconditional(params, f, rng, size=100, scaled=True)
    assert np.abs(x[:, :2]).max() < 1.5  # head near +-1 after dividing by R


def test_measure_adds_beta_noise():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(5)
    _, x = sample_unconditional(params, f, rng, size=100_000)
    y = measure(x, params, rng)
    resid = y - x[:, 2:]
    assert_allclose(resid.std(), params.beta, rtol=0.02)


def test_measurement_matrix_selects_tail():
    params = canonical_params(3, 2)
    A = measurement_matrix(params)
    x = np.arange(5.0)
    assert_allclose(A @ x, [3.0, 4.0])
    assert_allclose(np.linalg.norm(A, 2), 1.0, rtol=1e-9)


def test_measure_general_rejects_expanding_matrix():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        measure_general(2.0 * np.eye(3), np.zeros(3), 0.1, rng)


def test_clipped_noise_bounded_and_gaussian_inside():
    rng = np.random.default_rng(2)
    eta = clipped_noise(0.1, 0.25, rng, 100_000)
    assert np.abs(eta).max() <= 0.25
    # exact truncated-normal standard deviation at the 2.5-sigma cut
    from scipy.stats import truncnorm

    assert_allclose(eta.std(), truncnorm.std(-2.5, 2.5, scale=0.1), rtol=0.01)
