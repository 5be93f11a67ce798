import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import norm

from phaselab.diagnostics import (
    clipped_noise_tv,
    conditional_tv_check,
    ks,
    tv_binned,
    tv_discrete,
)


def test_tv_binned_same_draws_zero():
    x = np.random.default_rng(0).standard_normal(5000)
    assert tv_binned(x, x).value == 0.0


def test_tv_binned_disjoint_supports():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(5000)
    rep = tv_binned(a, a + 100.0)
    assert rep.value >= 0.98


def test_tv_binned_gaussian_shift_oracle():
    """TV(N(0,1), N(1,1)) = 2*Phi(1/2) - 1, up to binning and sampling error."""
    rng = np.random.default_rng(2)
    rep = tv_binned(rng.standard_normal(100_000), 1.0 + rng.standard_normal(100_000))
    want = 2.0 * norm.cdf(0.5) - 1.0
    assert abs(rep.value - want) <= 0.02
    assert rep.ci95[0] <= rep.value <= rep.ci95[1] + 1e-12


def test_tv_binned_needs_enough_samples():
    with pytest.raises(ValueError):
        tv_binned(np.zeros(100), np.zeros(100))


def test_tv_binned_multidim_max_of_marginals():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50_000, 2))
    b = rng.standard_normal((50_000, 2))
    b[:, 1] += 1.0  # only the second coordinate differs
    rep = tv_binned(a, b)
    want = 2.0 * norm.cdf(0.5) - 1.0
    assert abs(rep.value - want) <= 0.03


def test_tv_discrete_validation_and_value():
    with pytest.raises(ValueError):
        tv_discrete([0.5, 0.6], [0.5, 0.5])
    assert_allclose(tv_discrete([0.2, 0.8], [0.6, 0.4]), 0.4)


def test_conditional_tv_identical_tables():
    p = np.full((4, 4), 1 / 16)
    lhs, rhs = conditional_tv_check(p, p)
    assert lhs == rhs == 0.0


def test_conditional_tv_disjoint_conditionals():
    """Same y-marginal, disjoint conditionals: lhs = 1 and the bound still holds."""
    p = np.array([[0.5, 0.0], [0.0, 0.5]])
    q = np.array([[0.0, 0.5], [0.5, 0.0]])
    lhs, rhs = conditional_tv_check(p, q)
    assert_allclose(lhs, 1.0)
    assert lhs <= rhs + 1e-12


def test_conditional_tv_inequality_random_tables():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = rng.random((6, 6))
        q = rng.random((6, 6))
        lhs, rhs = conditional_tv_check(p / p.sum(), q / q.sum())
        assert lhs <= rhs + 1e-12


def test_clipped_tv_matches_closed_form():
    """Numerical integration vs. the exact value 2*Phi(-beta_max/beta)."""
    for beta, bmax in [(0.1, 0.25), (0.25, 0.25), (0.5, 0.25), (0.025, 0.25)]:
        want = 2.0 * norm.sf(bmax / beta)
        assert_allclose(clipped_noise_tv(beta, bmax), want, rtol=1e-9)


def test_clipped_tv_bound_and_monotonicity():
    for ratio in (1.0, 2.0, 3.0):
        assert clipped_noise_tv(1.0, ratio) <= 2.0 * np.exp(-(ratio**2) / 2.0)
    vals = [clipped_noise_tv(0.2, b) for b in (0.2, 0.4, 0.6)]
    assert vals[0] > vals[1] > vals[2]


def test_clipped_tv_negligible_at_ten_sigma():
    assert clipped_noise_tv(0.1, 1.0) <= 1e-20


def test_ks_standard_gaussian_critical_value():
    rng = np.random.default_rng(8)
    n = 20_000
    stats = [ks(rng.standard_normal(n), norm.cdf) for _ in range(20)]
    assert np.mean(np.asarray(stats) <= 1.63 / np.sqrt(n)) >= 0.9


def test_ks_detects_wrong_cdf():
    rng = np.random.default_rng(9)
    assert ks(rng.standard_normal(5000) + 1.0, norm.cdf) > 0.3


@given(st.integers(0, 2**31), st.integers(100, 400))
@settings(max_examples=20, deadline=None)
def test_tv_discrete_range_property(seed, k):
    rng = np.random.default_rng(seed)
    p = rng.random(k)
    q = rng.random(k)
    tv = tv_discrete(p / p.sum(), q / q.sum())
    assert 0.0 <= tv <= 1.0
