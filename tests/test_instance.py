import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaselab import instance
from phaselab.circuits import no_output_candidate, sign_identity
from phaselab.instance import (
    EPS_MAX,
    InstanceParams,
    bits_eps,
    canonical_params,
    check_operator_norm,
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
        ("d", (0, 2, 30.0, 1.0, 0.1)),
        ("d_prime", (2, -1, 30.0, 1.0, 0.1)),
        ("R", (2, 2, -30.0, 1.0, 0.1)),
        ("eps", (2, 2, 30.0, -1.0, 0.1)),
        ("beta", (2, 2, 30.0, 1.0, -0.1)),
    ):
        with pytest.raises(ValueError, match=f"^field '{field}': must be >"):
            InstanceParams(*args)
    for field, args in (
        ("R", (np.inf, 1.0, 0.1)),
        ("eps", (30.0, np.nan, 0.1)),
        ("beta", (30.0, 1.0, np.nan)),
    ):
        with pytest.raises(ValueError, match=f"^field '{field}': must be finite$"):
            InstanceParams(2, 2, *args)
    # past EPS_MAX the two smoothed-density routes disagree, and then no atom is left
    InstanceParams(2, 2, 30.0, EPS_MAX, 0.1)
    for eps in (np.nextafter(EPS_MAX, np.inf), 16.0, 30.0):
        with pytest.raises(ValueError, match="^field 'eps': must be <= 8$"):
            InstanceParams(2, 2, 30.0, eps, 0.1)
    p = InstanceParams(1, 0, 4.0, 1.0, 0.1)
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
    """Repeat calls share one pair of arrays, so no caller may write into them; the log form
    keeps the atoms of positive weight (at extent 40 the outer weights underflow to 0)."""
    pts, p = lattice_atoms(1.0, 0.5)
    again = lattice_atoms(1.0, 0.5)
    assert again[0] is pts and again[1] is p
    log_pts, logp = lattice_atoms(1.0, 0.5, log=True)
    assert lattice_atoms(1.0, 0.5, log=True)[1] is logp
    assert np.array_equal(log_pts, pts) and np.array_equal(logp, np.log(p))
    for a in (pts, p, log_pts, logp):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert not np.shares_memory(pts, lattice_atoms(1.0, 0.5, extent=6.0)[0])
    pts, p = lattice_atoms(1.0, 0.5, extent=40.0)
    log_pts, logp = lattice_atoms(1.0, 0.5, extent=40.0, log=True)
    assert p[0] == 0.0 and np.array_equal(log_pts, pts[p > 0])
    assert np.array_equal(logp, np.log(p[p > 0]))


def test_discretized_gaussian_moments():
    rng = np.random.default_rng(7)
    x = sample_discretized_gaussian(-1, 1.0, rng, size=200_000)
    pts, p = lattice_atoms(1.0, 0.5)
    assert_allclose(x.mean(), pts @ p, atol=0.02)
    assert_allclose(np.mean(x**2), p @ pts**2, atol=0.03)
    # every draw sits on the phased lattice
    assert np.allclose((x - 0.5) / 1.0, np.round((x - 0.5) / 1.0))


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


@pytest.mark.parametrize("b", [1, -1])
def test_discretized_gaussian_generator_sequence_is_lone_calls(b):
    """Generators with one size each: generator i draws what a lone call of size[i] draws, bit
    for bit, and is left in that call's state; a zero size between nonzero ones draws nothing."""
    sizes = [3, 0, 5, 1, 0, 2]
    gens = [np.random.default_rng(60 + i) for i in range(len(sizes))]
    x = sample_discretized_gaussian(b, 0.5, gens, sizes)
    lone_gens = [np.random.default_rng(60 + i) for i in range(len(sizes))]
    lone = [sample_discretized_gaussian(b, 0.5, r, n) for r, n in zip(lone_gens, sizes)]
    assert np.array_equal(x, np.concatenate(lone))
    for r, ref in zip(gens, lone_gens):
        assert r.random() == ref.random()


def test_discretized_gaussian_needs_one_size_per_generator():
    """A sizes sequence of another length than the generators' raises before any draw."""
    gens = [np.random.default_rng(i) for i in range(3)]
    for sizes in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="one size per generator"):
            sample_discretized_gaussian(1, 1.0, gens, sizes)
    assert [r.random() for r in gens] == [np.random.default_rng(i).random() for i in range(3)]


def test_sample_unconditional_draws_each_bit_once_per_call(monkeypatch):
    """k = 8 generators: the tail takes one lattice draw per bit for the whole call, not one
    per generator and bit."""
    calls = []
    draw = instance.sample_discretized_gaussian
    monkeypatch.setattr(
        instance, "sample_discretized_gaussian", lambda b, *a: calls.append(b) or draw(b, *a)
    )
    params = canonical_params(3, 4, beta=0.3)
    f = random_circuit_owf(3, 4, 14, seed=3)
    sample_unconditional(params, f, [np.random.default_rng(i) for i in range(8)], 64)
    assert sorted(calls) == [-1, 1]


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
    params = InstanceParams(d, d_prime, 30.0, eps, eps / 40)
    f = random_circuit_owf(d, d_prime, 3 * d_prime, seed=d) if d_prime else no_output_candidate(d)
    for size in (1, 7, 1024):
        for seed in range(20):
            s, x = sample_unconditional(params, f, np.random.default_rng(seed), size)
            s_ref, x_ref = inline_draw_sample_unconditional(
                params, f, np.random.default_rng(seed), size
            )
            assert np.array_equal(s, s_ref) and np.array_equal(x, x_ref)


def test_check_operator_norm_bound_and_tolerance():
    """The largest singular value may exceed 1 by at most 1e-9; an empty A passes."""
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    for A in (np.eye(3), np.diag([1.0, 0.2]), np.diag([1 + 0.5e-9, 0.5]), np.zeros((0, 4))):
        out = check_operator_norm(A)
        assert out.dtype == float and np.array_equal(out, A)
    assert check_operator_norm([[0, 1]]).dtype == float
    for A in (np.diag([1 + 2e-9, 0.5]), 1.01 * rot, np.ones((2, 2))):
        with pytest.raises(ValueError, match="operator norm <= 1"):
            check_operator_norm(A)


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


@pytest.mark.parametrize("eps", [0.5, 2.0])
def test_clipped_channel_noise_stays_within_the_decode_radius(eps):
    """The bounded channel clips at eps/4, so bits_eps decodes every draw exactly at any eps."""
    params = InstanceParams(3, 3, 30.0, eps, eps / 4)  # beta = eps/4: the clip binds often
    f = sign_identity(3)
    rng = np.random.default_rng(int(4 * eps))
    _, x = sample_unconditional(params, f, rng, size=20_000)
    y = measure_clipped(x, params, rng)
    noise = y - x[:, 3:]
    assert np.abs(noise).max() <= eps / 4 and np.abs(noise).max() > 0.9 * eps / 4
    assert np.array_equal(bits_eps(y, eps), bits_eps(x[:, 3:], eps))


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
