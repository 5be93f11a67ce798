import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaselab.circuits import no_output_candidate, sign_identity
from phaselab.instance import (
    EPS_MAX,
    InstanceParams,
    bits_eps,
    canonical_params,
    clipped_noise,
    lattice_atoms,
    measure_clipped,
    measurement_matrix,
    phase_of_bit,
    round_R,
    sample_discretized_gaussian,
    sample_unconditional,
)
from phaselab.reduction import random_circuit_owf


def test_params_validation():
    for field, args in (
        ("d", (0, 2, 30.0, 1.0, 0.1, 0.25)),
        ("d_prime", (2, -1, 30.0, 1.0, 0.1, 0.25)),
        ("R", (2, 2, -30.0, 1.0, 0.1, 0.25)),
        ("eps", (2, 2, 30.0, -1.0, 0.1, 0.25)),
        ("beta", (2, 2, 30.0, 1.0, -0.1, 0.25)),
        ("beta_max", (2, 2, 30.0, 1.0, 0.1, 0.0)),
    ):
        with pytest.raises(ValueError, match=f"^field '{field}': must be >"):
            InstanceParams(*args)
    for field, args in (
        ("R", (np.inf, 1.0, 0.1, 0.25)),
        ("eps", (30.0, np.nan, 0.1, 0.25)),
        ("beta", (30.0, 1.0, np.nan, 0.25)),
        ("beta_max", (30.0, 1.0, 0.1, np.inf)),
    ):
        with pytest.raises(ValueError, match=f"^field '{field}': must be finite$"):
            InstanceParams(2, 2, *args)
    # past EPS_MAX the two smoothed-density routes disagree, and then no atom is left
    InstanceParams(2, 2, 30.0, EPS_MAX, 0.1, 0.25)
    for eps in (np.nextafter(EPS_MAX, np.inf), 16.0, 30.0):
        with pytest.raises(ValueError, match="^field 'eps': must be <= 8$"):
            InstanceParams(2, 2, 30.0, eps, 0.1, 0.25)
    p = InstanceParams(1, 0, 4.0, 1.0, 0.1, 0.25)
    assert p.dim == 1


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


def test_lattice_atoms_are_cached_and_read_only():
    """Repeat calls share one pair of arrays, so no caller may write into them."""
    pts, p = lattice_atoms(1.0, 0.5)
    again = lattice_atoms(1.0, 0.5)
    assert again[0] is pts and again[1] is p
    for a in (pts, p):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert not np.shares_memory(pts, lattice_atoms(1.0, 0.5, extent=6.0)[0])


def test_discretized_gaussian_moments():
    rng = np.random.default_rng(7)
    x = sample_discretized_gaussian(-1, 1.0, rng, size=200_000)
    pts, p = lattice_atoms(1.0, 0.5)
    assert_allclose(x.mean(), pts @ p, atol=0.02)
    assert_allclose(np.mean(x**2), p @ pts**2, atol=0.03)
    # every draw sits on the phased lattice
    assert np.allclose((x - 0.5) / 1.0, np.round((x - 0.5) / 1.0))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["plus", "minus", "mixed", "empty"]),
    length=st.integers(1, 12),
    eps=st.floats(1e-3, EPS_MAX),
    size=st.sampled_from([0, 1, 7, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bit_array_draws_equal_scalar_draws_bit_by_bit(kind, length, eps, size, seed):
    """An array of bits draws, and leaves the generator, as one scalar call per bit does."""
    bits = {
        "plus": np.ones(length, dtype=np.int64),
        "minus": -np.ones(length, dtype=np.int64),
        "mixed": np.random.default_rng(seed).permutation(np.resize([1, -1], length)),
        "empty": np.empty(0, dtype=np.int64),
    }[kind]
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    x = sample_discretized_gaussian(bits, eps, rng, size)
    want = np.empty((size, len(bits)))
    for j, b in enumerate(bits):
        want[:, j] = sample_discretized_gaussian(int(b), eps, ref, size)
    assert x.shape == (size, len(bits)) and np.array_equal(x, want)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("b", [1, -1])
@pytest.mark.parametrize("eps", [0.1, 1.0, EPS_MAX])
def test_scalar_draw_is_generator_choice(b, eps):
    """A scalar bit draws exactly what rng.choice over the lattice atoms draws."""
    pts, p = lattice_atoms(eps, phase_of_bit(b, eps))
    for size in (0, 1, 7, 5000):
        rng, ref = np.random.default_rng(size), np.random.default_rng(size)
        x = sample_discretized_gaussian(b, eps, rng, size)
        assert np.array_equal(x, pts[ref.choice(len(pts), size=size, p=p)])
        assert rng.random() == ref.random()


def inline_draw_sample_unconditional(params, f, rng, size):
    """Reference: sample_unconditional with its former inline draw from each phase lattice."""
    s = rng.choice(np.array([-1, 1]), size=(size, params.d))
    x = np.empty((size, params.dim))
    x[:, : params.d] = params.R * s + rng.standard_normal((size, params.d))
    bits = f(s)
    for b in (1, -1):
        atoms, p = lattice_atoms(params.eps, phase_of_bit(b, params.eps))
        mask = bits == b
        cnt = int(mask.sum())
        if cnt:
            x[:, params.d :][mask] = atoms[rng.choice(len(atoms), size=cnt, p=p)]
    return s, x


@pytest.mark.parametrize("d, d_prime, eps", [(1, 1, 0.05), (3, 0, 1.0), (4, 6, 0.5), (8, 8, 8.0)])
def test_sample_unconditional_draws_as_inline_reference(d, d_prime, eps):
    """Drawing the tail through sample_discretized_gaussian leaves every draw as it was."""
    params = InstanceParams(d, d_prime, 30.0, eps, eps / 40, eps / 4)
    f = random_circuit_owf(d, d_prime, 3 * d_prime, seed=d) if d_prime else no_output_candidate(d)
    for size in (1, 7, 1024):
        for seed in range(20):
            s, x = sample_unconditional(params, f, np.random.default_rng(seed), size)
            s_ref, x_ref = inline_draw_sample_unconditional(
                params, f, np.random.default_rng(seed), size
            )
            assert np.array_equal(s, s_ref) and np.array_equal(x, x_ref)


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


def test_measurement_matrix_selects_tail():
    params = canonical_params(3, 2)
    A = measurement_matrix(params)
    x = np.arange(5.0)
    assert_allclose(A @ x, [3.0, 4.0])
    assert_allclose(np.linalg.norm(A, 2), 1.0, rtol=1e-9)


def test_clipped_noise_bounded_and_gaussian_inside():
    rng = np.random.default_rng(2)
    eta = clipped_noise(0.1, 0.25, rng, 100_000)
    assert np.abs(eta).max() <= 0.25
    # exact truncated-normal standard deviation at the 2.5-sigma cut
    from scipy.stats import truncnorm

    assert_allclose(eta.std(), truncnorm.std(-2.5, 2.5, scale=0.1), rtol=0.01)


@pytest.mark.parametrize("beta, beta_max", [(1.0, 1e-4), (0.1, 0.25), (1.0, 0.5)])
def test_clipped_noise_is_one_draw_per_value_truncated_normal(beta, beta_max):
    """Bounded, distributed as the truncated normal, and one uniform per value however
    narrow the window (a redraw loop would need about beta/beta_max draws per value)."""
    from scipy.stats import kstest, truncnorm

    rng = np.random.default_rng(4)
    eta = clipped_noise(beta, beta_max, rng, 20_000)
    twin = np.random.default_rng(4)
    twin.uniform(size=20_000)
    assert rng.random() == twin.random()  # exactly 20000 uniforms consumed
    assert np.abs(eta).max() <= beta_max
    a = beta_max / beta
    assert kstest(eta, truncnorm(-a, a, scale=beta).cdf).pvalue > 1e-3


def test_clipped_noise_without_noise_is_zero():
    assert np.array_equal(clipped_noise(0.0, 0.25, np.random.default_rng(0), (2, 3)), np.zeros((2, 3)))
