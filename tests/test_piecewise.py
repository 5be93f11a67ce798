import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaselab.instance import lattice_atoms
from phaselab.piecewise import (
    C4_L2,
    EPS_DG,
    ApproxParams,
    PiecewiseLinear,
    build_good_interval,
    build_score_approx,
    measure_l2_error,
    score_family,
)

from lemmas import estimate_sup_score_moment, score_family_log_density

FAMILIES = ("gaussian", "two_point", "dg")


def test_pl_evaluation_and_extension():
    l = PiecewiseLinear(np.array([0.0, 1.0]), np.array([2.0, 3.0]), -1.0, 0.5)
    assert_allclose(l(np.array([0.5])), [2.5])
    assert_allclose(l(np.array([-2.0])), [4.0])  # left slope -1 from value 2
    assert_allclose(l(np.array([3.0])), [4.0])  # right slope 0.5 from value 3


def test_pl_requires_increasing_breakpoints():
    with pytest.raises(ValueError):
        PiecewiseLinear(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.0, 0.0)


def test_pl_csv_round_trip():
    """to_csv writes every breakpoint, value and end slope exactly: each, read back with
    np.loadtxt or float, is the stored one bit for bit."""
    rng = np.random.default_rng(3)
    bp = np.sort(rng.uniform(-2, 2, size=6))
    l = PiecewiseLinear(bp, rng.standard_normal(6), rng.standard_normal(), -1 / 3)
    lines = l.to_csv().splitlines()
    tag, version, *slopes = lines[0].removeprefix("# ").split()
    assert (tag, version, lines[1]) == ("piecewise-linear", "v1", "breakpoint,value")
    slopes = dict(t.split("=") for t in slopes)
    got_bp, got_vals = np.loadtxt(lines[2:], delimiter=",", unpack=True)
    for got, want in [
        (got_bp, l.breakpoints), (got_vals, l.values),
        (float(slopes["left_slope"]), l.left_slope), (float(slopes["right_slope"]), l.right_slope),
    ]:
        assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def test_interpolant_exact_on_linear_score():
    l = build_good_interval(lambda x: -0.5 * x + 1.0, 0.25, np.inf, -3.0, 3.0)
    x = np.linspace(-3, 3, 101)
    assert_allclose(l(x), -0.5 * x + 1.0, atol=1e-12)


def test_good_interval_bridges_spikes():
    """Intervals where the score exceeds the threshold get replaced by a bridge."""

    def spiky(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x - 0.5) < 0.2, 100.0, 0.1)

    l = build_good_interval(spiky, 0.25, threshold=10.0, lo=-2.0, hi=2.0)
    assert np.max(np.abs(l(np.linspace(-2, 2, 401)))) < 10.0


def test_good_interval_bridges_edge_and_interior_runs_exactly():
    """Bad runs at both edges and one inside: anchors (grid points next to a good
    interval) keep the score, the inside run is the chord between its two anchors,
    and each edge run holds the value of the outermost anchor."""

    def score(x):
        x = np.asarray(x, dtype=float)
        spike = (x < -1.6) | (np.abs(x - 0.4) < 0.2) | (x > 1.6)
        return np.where(spike, 100.0, np.sin(x))

    l = build_good_interval(score, 0.25, threshold=10.0, lo=-2.0, hi=2.0)
    grid = np.arange(-8, 9) * 0.25  # bad intervals: 0-1, 8-10, 14-15
    assert np.array_equal(l.breakpoints, grid)
    vals = score(grid)
    anchors = np.r_[2:9, 11:15]
    assert np.array_equal(l.values[anchors], vals[anchors])
    t = (grid[9:11] - grid[8]) / (grid[11] - grid[8])
    assert np.array_equal(l.values[9:11], vals[8] + t * (vals[11] - vals[8]))
    assert np.all(l.values[:2] == vals[2]) and np.all(l.values[15:] == vals[14])


def test_approx_params_validation():
    with pytest.raises(ValueError):
        ApproxParams(0.3, 1.0, 1.0)
    ap = ApproxParams(0.04, 0.5, 2.0)
    assert_allclose(ap.gamma, 0.1)
    assert_allclose(ap.delta, 0.0016)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_structural_bounds(family, sigma):
    """Piece count, transition range, slope, and value bounds of the approximation."""
    kappa = 0.04
    score, sampler, m2 = score_family(family, sigma)
    ap = ApproxParams(kappa, sigma, m2)
    l = build_score_approx(score, ap)
    assert l.piece_count <= 4 * m2 / (sigma * kappa**1.5) + 8
    assert np.all(np.abs(l.breakpoints) <= m2 / kappa + 2 * ap.gamma + 1e-9)
    assert np.max(np.abs(l.slopes())) <= 4 * np.log(1 / kappa) / (sigma**2 * np.sqrt(kappa))
    assert np.max(np.abs(l.values)) <= 2 * np.log(1 / kappa) / sigma


@pytest.mark.parametrize("family", FAMILIES)
def test_l2_error_scales_with_kappa(family):
    """E[(l - s)^2] * sigma^2 / kappa stays bounded as kappa decreases."""
    sigma = 1.0
    score, sampler, m2 = score_family(family, sigma)
    rng = np.random.default_rng(21)
    for kappa in (0.04, 0.01):
        l = build_score_approx(score, ApproxParams(kappa, sigma, m2))
        err = measure_l2_error(l, score, sampler, 100_000, rng)
        assert err * sigma**2 / kappa <= C4_L2


def test_piece_count_trend():
    """4x smaller kappa multiplies the piece count by roughly kappa^(-3/2) = 8."""
    score, sampler, m2 = score_family("two_point", 1.0)
    n1 = build_score_approx(score, ApproxParams(0.04, 1.0, m2)).piece_count
    n2 = build_score_approx(score, ApproxParams(0.01, 1.0, m2)).piece_count
    assert 4.0 <= n2 / n1 <= 16.0


def test_gaussian_approx_is_near_exact():
    """A linear score is reproduced up to clamping, so the error is tiny."""
    score, sampler, m2 = score_family("gaussian", 1.0)
    l = build_score_approx(score, ApproxParams(0.04, 1.0, m2))
    rng = np.random.default_rng(3)
    assert measure_l2_error(l, score, sampler, 50_000, rng) < 1e-6


def test_families_score_matches_log_density():
    h = 1e-5
    for family in FAMILIES:
        score, sampler, m2 = score_family(family, 0.8)
        logd = score_family_log_density(family, 0.8)
        x = np.linspace(-3, 3, 41)
        assert_allclose(score(x), (logd(x + h) - logd(x - h)) / (2 * h), atol=1e-4)


@pytest.mark.parametrize("sigma", [0.05, 0.5, 2.0])
def test_dg_sampler_draws_as_inline_reference(sigma):
    """The dg family draws through sample_discretized_gaussian exactly as its former inline draw."""
    _, sampler, _ = score_family("dg", sigma)
    atoms, p = lattice_atoms(EPS_DG, 0.0)
    for n in (1, 7, 1024):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            want = atoms[rng.choice(len(atoms), size=n, p=p)] + sigma * rng.standard_normal(n)
            assert np.array_equal(sampler(n, np.random.default_rng(seed)), want)


def test_families_sampler_second_moment():
    """Sampler second moment agrees with the declared m2 scale."""
    for family in FAMILIES:
        score, sampler, m2 = score_family(family, 0.6)
        rng = np.random.default_rng(17)
        x = sampler(200_000, rng)
        assert np.sqrt(np.mean(x**2)) <= m2 * (1 + 1e-2)


def test_sup_score_moment_scaling():
    """The derivative-moment estimate grows like 1/sigma^4 as sigma shrinks."""
    rng = np.random.default_rng(5)
    vals = {
        s: estimate_sup_score_moment("dg", s, 0.1, 20_000, rng) for s in (0.25, 0.5, 1.0)
    }
    for s in (0.25, 0.5):
        ratio = vals[s] / vals[2 * s]
        assert ratio > 2.0  # strong growth toward small sigma
        assert vals[s] <= 40.0 / s**4  # desk-scale constant for the bound


@given(
    st.lists(st.integers(-500, 500), min_size=2, max_size=8, unique=True),
    st.lists(st.floats(-5, 5), min_size=8, max_size=8),
    st.floats(-3, 3),
    st.floats(-3, 3),
)
@settings(max_examples=50, deadline=None)
def test_pl_continuity_property(bps, vals, ls, rs):
    bp = np.sort(np.asarray(bps, dtype=float)) / 100.0  # gaps of at least 0.01
    l = PiecewiseLinear(bp, np.asarray(vals[: bp.size]), ls, rs)
    # evaluation at breakpoints reproduces the stored values exactly
    assert_allclose(l(bp), l.values, rtol=0, atol=0)
    # approach from both sides converges to the breakpoint value
    h = 1e-9
    for j, b in enumerate(bp):
        assert abs(l(np.array([b - h]))[0] - l.values[j]) < 1e-6
        assert abs(l(np.array([b + h]))[0] - l.values[j]) < 1e-6
