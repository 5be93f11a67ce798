import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from phaselab.circuits import MAX_ENUM_D, constant_candidate, sign_identity
from phaselab import scores
from phaselab.diffusion import default_config, geometric_grid, reverse_run
from phaselab.instance import InstanceParams, LATTICE_EXTENT, canonical_params, lattice_atoms
from phaselab.instance import phase_of_bit
from phaselab.posterior import Measurement, seed_posterior_log_weights
from phaselab.reduction import random_circuit_owf
from phaselab.scores import (
    DiscreteGaussianSpec,
    ScoreProvider,
    dg_smoothed_log_density,
    dg_smoothed_score,
    large_sigma_score,
    mixture_score_exact,
    orthant_score,
    provider_by_name,
    two_point_log_density,
    two_point_score,
)


def density(spec, x):
    return np.exp(dg_smoothed_log_density(spec, x))


def series_parts(spec, x):
    """(log density, score) on the series route, whatever the spec's smoothing."""
    return scores._dg_series((spec,), x, 0)[0], scores._dg_series((spec,), x, 1)[0]


def fd(logd, x, h=1e-6):
    """Central finite difference of a log density; the score oracle."""
    return (logd(x + h) - logd(x - h)) / (2 * h)


def test_dg_series_matches_lattice():
    """Both evaluation routes agree far below the 1e-10 requirement (worst gap about 5e-14)."""
    for eps, rho in [(1.0, 0.5), (0.5, 0.4), (1.0, 2.0), (0.5, 0.3)]:
        for phase in (0.0, eps / 2):
            spec = DiscreteGaussianSpec(eps, phase, rho)
            x = np.linspace(-8, 8, 801)
            (ls, ss), (ll, sl) = series_parts(spec, x), scores._dg_lattice_parts(spec, x)
            assert_allclose(np.exp(ls), np.exp(ll), rtol=0, atol=1e-10)
            assert_allclose(ss, sl, rtol=0, atol=1e-10)


def old_series_parts(spec, x):
    """Reference: the series summed to the old conservative J, far past its 1e-18 terms."""
    v = 1.0 + spec.rho**2
    J = int(np.ceil(spec.eps * np.sqrt(2.0 * v * scores._SERIES_LOG_CUT) / spec.rho))
    j = np.arange(1, J + 1, dtype=float)
    a = np.exp(-2.0 * np.pi**2 * j**2 * spec.rho**2 / (spec.eps**2 * v))
    freq = 2.0 * np.pi * j / spec.eps
    arg = np.multiply.outer(x / v - spec.phase, freq)
    T = 1.0 + 2.0 * (np.cos(arg) @ a)
    Tp = -2.0 * (np.sin(arg) @ (a * freq / v))
    z = scores._lattice_normalizer_series(spec.eps, spec.phase)
    with np.errstate(divide="ignore"):
        logd = -(x**2) / (2.0 * v) - 0.5 * np.log(2.0 * np.pi * v) + np.log(np.maximum(T, 0.0))
    logd -= np.log(z)
    return logd, -x / v + Tp / np.maximum(T, 1e-300)


def old_lattice_parts(spec, x):
    """Reference: the lattice sum in its former (points, atoms) layout, with temporaries."""
    pts, p = lattice_atoms(spec.eps, spec.phase, extent=LATTICE_EXTENT + 8.0 * spec.rho)
    logd = np.empty(x.shape)
    score = np.empty(x.shape)
    logp = np.log(p)
    rho2 = spec.rho**2
    chunk = max(1, int(2**22 // len(pts)))
    for lo in range(0, x.size, chunk):
        xs = x[lo : lo + chunk, None]
        diff = xs - pts[None, :]
        lg = logp[None, :] - diff**2 / (2.0 * rho2)
        m = lg.max(axis=1, keepdims=True)
        w = np.exp(np.maximum(lg - m, scores._LOG_CUTOFF))
        tot = w.sum(axis=1)
        logd[lo : lo + chunk] = m[:, 0] + np.log(tot) - 0.5 * np.log(2.0 * np.pi * rho2)
        score[lo : lo + chunk] = (w @ (pts / rho2) - (w.sum(axis=1)) * xs[:, 0] / rho2) / tot
    return logd, score


def assert_same_log_density(got, want):
    """To 1e-12: absolute down to -700, relative below, where a sum of ~1e9 has 1e-7 ulps."""
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    fin = np.isfinite(want)
    assert np.all(np.isfinite(got[fin]))
    tiny = want < -700.0
    assert_allclose(got[fin & ~tiny], want[fin & ~tiny], rtol=0, atol=1e-12)
    assert_allclose(got[tiny], want[tiny], rtol=1e-12)


def test_dg_series_keeps_exactly_its_terms_above_1e18():
    """The series stops at its true decay, and still matches the old, longer sum."""
    for eps in (0.05, 0.5, 1.0, 8.0):
        x = np.linspace(-40.0, 40.0, 1601) * max(1.0, eps / 2)
        for rho in (0.35 * eps, 0.5 * eps, eps, 2 * eps, 5 * eps, 100.0):
            for phase in (0.0, eps / 2):
                spec = DiscreteGaussianSpec(eps, phase, rho)
                _, a, *_ = scores._series_coeffs(eps, rho)
                c = 2.0 * np.pi**2 * rho**2 / (eps**2 * (1.0 + rho**2))
                assert np.all(a >= 1e-18)
                assert np.exp(-c * (len(a) + 1) ** 2) < 1e-18
                want_ld, want_sc = old_series_parts(spec, x)
                ld, sc = series_parts(spec, x)
                assert_same_log_density(ld, want_ld)
                assert np.all(np.abs(sc - want_sc) <= 1e-12 * (1.0 + np.abs(want_sc)))


def test_dg_lattice_sum_matches_row_major_reference():
    """The in-place (atoms, points) lattice sum gives the former layout's numbers."""
    rng = np.random.default_rng(8)
    for eps in (0.05, 1.0, 8.0):
        for rho in (0.01 * eps, 0.1 * eps, 0.34 * eps):
            for phase in (0.0, eps / 2):
                spec = DiscreteGaussianSpec(eps, phase, rho)
                pts, _ = lattice_atoms(eps, phase, extent=LATTICE_EXTENT + 8.0 * rho)
                x = np.concatenate(
                    [pts, pts + rho * rng.standard_normal(pts.size), np.linspace(-30, 30, 601)]
                )
                if eps == 0.05 and rho == 0.01 * eps and phase == 0.0:
                    # more points than one chunk of 2**22 // atoms holds: the loop runs twice
                    x = np.concatenate([x, rng.uniform(-15, 15, 2**22 // pts.size)])
                want_ld, want_sc = old_lattice_parts(spec, x)
                ld, sc = scores._dg_lattice_parts(spec, x)
                assert_same_log_density(ld, want_ld)
                tol = 1e-13 * (np.abs(x) + 12.0 + 8.0 * rho) / rho**2
                assert np.all(np.abs(sc - want_sc) <= tol)


def test_dg_lattice_route_forced_at_large_smoothing():
    """Far atoms whose weight underflows to 0 are dropped: no log(0), and the series' numbers."""
    x = np.linspace(-40.0, 40.0, 801)
    for eps in (1.0, 0.5):
        for rho in (5.0, 10.0, 20.0):
            for phase in (0.0, eps / 2):
                spec = DiscreteGaussianSpec(eps, phase, rho)
                (ll, sl), (ls, ss) = scores._dg_lattice_parts(spec, x), series_parts(spec, x)
                assert_allclose(ll, ls, rtol=0, atol=1e-10)
                assert_allclose(sl, ss, rtol=1e-10, atol=1e-10)


def test_dg_density_integrates_to_one():
    spec = DiscreteGaussianSpec(1.0, 0.5, 0.7)
    x = np.linspace(-14, 14, 20_001)
    mass = np.trapezoid(density(spec, x), x)
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


@pytest.mark.parametrize("smoothed", [dg_smoothed_log_density, dg_smoothed_score])
def test_dg_phase_pair_is_the_stack_of_lone_calls(smoothed):
    """A phase pair gives np.stack of its two lone calls bit for bit, on both routes: rho below,
    at and above 0.35 eps, and eps = 12, rho = 4.1 (the lattice route, where the outer atoms of
    the eps/2 phase underflow to weight 0); for x of shape (n,), (n, d') and size 0. A lone
    spec keeps x's shape; a pair whose specs differ in eps or rho is refused."""
    rng = np.random.default_rng(28)
    assert lattice_atoms(12.0, 6.0, LATTICE_EXTENT + 8.0 * 4.1)[1][0] == 0.0
    for eps, rho in [(1.0, 0.1), (1.0, 0.35), (1.0, 0.8), (0.5, 0.17), (12.0, 4.1)]:
        pair = scores._phase_specs(eps, rho)
        for shape in [(1,), (16,), (500,), (2, 8), (37, 3), (0,), (0, 4)]:
            x = rng.standard_normal(shape) * (2.0 + rho) + rng.integers(-3, 4, shape) * eps / 2
            lone = [smoothed(spec, x) for spec in pair]
            assert all(out.shape == shape for out in lone)
            got = smoothed(pair, x)
            assert got.shape == (2,) + shape
            assert np.array_equal(got, np.stack(lone))
    for other in (DiscreteGaussianSpec(2.0, 1.0, 0.2), DiscreteGaussianSpec(1.0, 0.5, 0.3)):
        with pytest.raises(ValueError, match="share eps and rho"):
            smoothed((DiscreteGaussianSpec(1.0, 0.0, 0.2), other), np.zeros(3))


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


@pytest.mark.parametrize("score", [mixture_score_exact, orthant_score])
def test_scores_take_only_a_batch_of_points(score):
    """A score maps (n, dim) points to (n, dim) scores; a lone (dim,) point is rejected."""
    params = canonical_params(2, 2)
    x = np.array([30.0, -30.0, 0.2, 0.7])
    assert score(params, sign_identity(2), 1.0, x[None]).shape == (1, 4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        score(params, sign_identity(2), 1.0, x)


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
    st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_mixture_score_matches_per_seed_tensor_formula(d, d_prime, sigma, n, seed):
    params = canonical_params(d, d_prime)
    f = random_circuit_owf(d, d_prime, 2 * d_prime, seed)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d + d_prime)) * (1.0 + sigma)
    X[:, :d] += params.R * rng.choice([-1.0, 0.0, 1.0], size=(n, d))
    X[:, d:] += rng.integers(-3, 4, size=(n, d_prime)) * params.eps / 2
    want, want_log = tensor_mixture_score(params, f, sigma, X)
    got, got_log = mixture_score_exact(params, f, sigma, X, return_log_density=True)
    assert got.shape == X.shape
    assert_allclose(got, want, atol=1e-9, rtol=1e-12)
    assert_allclose(got_log, want_log, atol=1e-9, rtol=0)


def frozen_normalizer(eps, phase):
    """Frozen reference: _lattice_normalizer_series before it was cached."""
    z = 1.0
    j = 1
    while j <= 400:
        b = np.exp(-2.0 * np.pi**2 * j**2 / eps**2)
        if b < 1e-40:
            break
        z += 2.0 * b * np.cos(2.0 * np.pi * j * phase / eps)
        j += 1
    return z


def frozen_series_parts(spec, x):
    """Frozen reference: the series route's log density and score, op for op as they were
    before their x-free factors were cached."""
    v = 1.0 + spec.rho**2
    c = 2.0 * np.pi**2 * spec.rho**2 / (spec.eps**2 * (1.0 + spec.rho**2))
    j = np.arange(1, int(np.sqrt(scores._SERIES_LOG_CUT / c)) + 1, dtype=float)
    a, freq = np.exp(-c * j**2), 2.0 * np.pi * j / spec.eps
    arg = np.multiply.outer(x / (1.0 + spec.rho**2) - spec.phase, freq)
    T = 1.0 + 2.0 * (np.cos(arg) @ a)
    base = -x**2 / (2.0 * v) - 0.5 * np.log(2.0 * np.pi * v)
    with np.errstate(divide="ignore"):
        ld = base + np.log(np.maximum(T, 0.0)) - np.log(frozen_normalizer(spec.eps, spec.phase))
    Tp = -2.0 * (np.sin(arg) @ (a * freq / v))
    return ld, -x / v + Tp / np.maximum(T, 1e-300)


def frozen_lattice_parts(spec, x):
    """Frozen reference: the lattice route as it was before its x-free factors were cached."""
    pts, p = lattice_atoms(spec.eps, spec.phase, extent=LATTICE_EXTENT + 8.0 * spec.rho)
    flat = x.reshape(-1)
    logp = np.log(p)[:, None]
    rho2 = spec.rho**2
    lg = np.subtract.outer(pts, flat)  # one chunk: at most 2**22 // atoms points
    lg *= lg
    lg *= -0.5 / rho2
    lg += logp
    m = lg.max(axis=0)
    lg -= m
    np.maximum(lg, scores._LOG_CUTOFF, out=lg)
    w = np.exp(lg, out=lg)
    tot = w.sum(axis=0)
    logd = m + np.log(tot) - 0.5 * np.log(2.0 * np.pi * rho2)
    score = ((pts / rho2) @ w - tot * flat / rho2) / tot
    return logd.reshape(x.shape), score.reshape(x.shape)


def frozen_tail_phase_parts(params, sigma, x_tail):
    """Frozen reference: _tail_phase_parts as it was, on the frozen routes."""
    parts = []
    for b in (1, -1):
        spec = DiscreteGaussianSpec(params.eps, phase_of_bit(b, params.eps), sigma)
        lattice = spec.rho < 0.35 * spec.eps
        parts.append((frozen_lattice_parts if lattice else frozen_series_parts)(spec, x_tail))
    return np.stack([p[0] for p in parts]), np.stack([p[1] for p in parts])


def frozen_mixture_score_exact(params, f, sigma, x, return_log_density=False):
    """Frozen reference: mixture_score_exact as it was before its seed tables were cached,
    with _seed_tail_loglik inlined."""
    X = np.asarray(x, dtype=float)
    S, F = f.seed_table
    S, Fp = S.astype(float), (F == 1).astype(float)
    v = 1.0 + sigma**2
    head = X[:, : params.d]
    ld_ph, sc_ph = frozen_tail_phase_parts(params, sigma, X[:, params.d :])
    loglik = np.concatenate(ld_ph, axis=1) @ np.concatenate((Fp, 1.0 - Fp), axis=1).T
    loglik += head @ ((params.R / v) * S.T)
    shift = ((head**2).sum(axis=1) + params.R**2 * params.d) / (2.0 * v)
    shift += params.d * (0.5 * np.log(2.0 * np.pi * v) + np.log(2.0))
    m = loglik.max(axis=1, keepdims=True)
    loglik -= m
    np.maximum(loglik, scores._LOG_CUTOFF, out=loglik)
    w = np.exp(loglik, out=loglik)
    tot = w.sum(axis=1, keepdims=True)
    w /= tot
    log_mix = (m + np.log(tot))[:, 0] - shift
    out = np.empty_like(X)
    out[:, : params.d] = (-head + params.R * (w @ S)) / v
    wp = w @ Fp
    out[:, params.d :] = wp * sc_ph[0] + (1.0 - wp) * sc_ph[1]
    return (out, log_mix) if return_log_density else out


def test_mixture_score_is_bit_identical_to_frozen_reference():
    """Cached seed tables and per-spec factors change no bit of the exact score: on the
    default reverse grid's sigmas (both sides of the route switch at 0.35 eps), for 1, 2 and
    500 points, with and without the log density, and on a row whose tail is e^-1000 or less
    likely under every seed, where the score matches the seeds-by-atoms logsumexp reference."""
    params = canonical_params(8, 8)
    sig = np.sqrt(geometric_grid(default_config(params))[:-1])
    k = int(np.argmax(sig < 0.35 * params.eps))  # first sigma on the lattice route
    sigmas = np.unique(np.concatenate([sig[::97], sig[k - 2 : k + 2], sig[-1:], [0.01]]))
    assert np.any(sigmas < 0.35) and np.any(sigmas >= 0.35)
    rng = np.random.default_rng(16)
    cases = [(random_circuit_owf(8, 8, 24, 16), n) for n in (1, 2, 500)]
    cases.append((constant_candidate(8, np.ones(8)), 2))  # every seed has bit +1 everywhere
    for f, n in cases:
        for sigma in sigmas:
            X = rng.standard_normal((n, params.dim)) * (1.0 + sigma)
            X[:, : params.d] += params.R * rng.choice([-1.0, 1.0], size=(n, params.d))
            X[:, params.d :] += rng.integers(-3, 4, size=(n, params.d_prime)) * params.eps / 2
            far = f.label == "constant" and sigma == 0.01
            if far:
                X[0, params.d :] = 0.5  # on eps/2-phase atoms only: bit +1 has e^-1250 each
            want_sc, want_ld = frozen_mixture_score_exact(params, f, sigma, X, True)
            got_sc, got_ld = mixture_score_exact(params, f, sigma, X, return_log_density=True)
            assert np.array_equal(got_sc, want_sc)
            assert np.array_equal(got_ld, want_ld)
            got = mixture_score_exact(params, f, sigma, X)
            assert np.array_equal(got, want_sc)
            if far:
                ref_sc, ref_ld = logsumexp_mixture(params, f, sigma, X[:1])
                assert np.all(np.isfinite(got[0])) and np.isfinite(got_ld[0])
                assert_relative_max(got[:1], ref_sc, 1e-12)
                assert_allclose(got_ld[0], ref_ld[0], rtol=1e-12)


def test_exp_floor_keeps_seed_sums_out_of_the_subnormal_range():
    """A sum of +-e^_EXP_FLOOR / 2^d weights over 2^MAX_ENUM_D seeds leaves rounding residues of
    e^_EXP_FLOOR eps / 2^d; below the smallest normal float, x86 sums them on its slow path."""
    residue = np.exp(scores._EXP_FLOOR) * np.finfo(float).eps / 2**MAX_ENUM_D
    assert residue >= np.finfo(float).smallest_normal


def logsumexp_mixture(params, f, sigma, X):
    """Reference: (score, log density) of the smoothed seed mixture, summing the seeds and
    each tail coordinate's lattice atoms with scipy's logsumexp, without the package's
    density routines."""
    S, F = f.seed_table
    v = 1.0 + sigma**2
    head, tail = X[:, : params.d], X[:, params.d :]
    tail_ld, tail_sc = {}, {}
    for b in (1, -1):
        pts, p = lattice_atoms(params.eps, phase_of_bit(b, params.eps), LATTICE_EXTENT + 8 * sigma)
        lg = np.log(p) - (tail[..., None] - pts) ** 2 / (2.0 * sigma**2)
        lg -= 0.5 * np.log(2.0 * np.pi * sigma**2)  # (n, d_prime, atoms)
        tail_ld[b] = logsumexp(lg, axis=-1)
        post = np.exp(lg - tail_ld[b][..., None])
        tail_sc[b] = (post * (pts - tail[..., None])).sum(axis=-1) / sigma**2
    loglik = -((head[:, None, :] - params.R * S) ** 2).sum(axis=2) / (2.0 * v)
    loglik -= params.d * (0.5 * np.log(2.0 * np.pi * v) + np.log(2.0))  # (n, 2^d)
    for j in range(params.d_prime):
        loglik += np.where(F[:, j] == 1, tail_ld[1][:, None, j], tail_ld[-1][:, None, j])
    log_mix = logsumexp(loglik, axis=1)
    w = np.exp(loglik - log_mix[:, None])
    wp = w @ (F == 1)
    out = np.concatenate(
        [(params.R * (w @ S) - head) / v, wp * tail_sc[1] + (1.0 - wp) * tail_sc[-1]], axis=1
    )
    return out, log_mix


def assert_relative_max(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "params, x, want",
    [
        # coordinate 2 sits eps/2 from every phase-0 atom: bit +1 there costs e^-1250, but
        # the head favours s_0 = +1 by e^1800, so those seeds carry e^550 times the mass
        (canonical_params(2, 2), (30.0, 30.0, 0.5, 0.25), None),
        # both tail coordinates far from both lattices: every seed's tail is below e^-1000
        (InstanceParams(2, 2, 30.0, 4.0, 0.025), (30.0, 30.0, 1.0, 0.3), (0, 0, -10000, -3000)),
    ],
    ids=["heavier-seeds-far-on-one-bit", "every-tail-far"],
)
def test_mixture_score_matches_logsumexp_reference_where_tails_are_tiny(params, x, want):
    """At sigma = 0.01 a tail coordinate far from a phase lattice has log density below -700
    under that bit: the score and log density still match the seeds-by-atoms reference."""
    f, X = sign_identity(2), np.array([x])
    score, logd = mixture_score_exact(params, f, 0.01, X, return_log_density=True)
    ref_score, ref_logd = logsumexp_mixture(params, f, 0.01, X)
    assert np.all(np.isfinite(score)) and np.isfinite(logd[0]) and logd[0] < -700
    assert_relative_max(score, ref_score, 1e-12)
    assert_allclose(logd, ref_logd, rtol=1e-12)
    if want is not None:
        assert_allclose(score[0], want, rtol=1e-12, atol=1e-9)


@pytest.mark.filterwarnings("error")
def test_brute_force_seed_weights_stay_finite_where_a_bit_is_unlikely():
    """The brute-force oracle's seed weights come from the same tail term: the seeds with
    s_0 = +1 have log weight about -1250, finite, and the weights still sum to 1."""
    f = sign_identity(2)
    m = Measurement(canonical_params(2, 2, beta=0.01), f, np.array([0.5, 0.25]))
    logw = seed_posterior_log_weights(m)
    plus = f.seed_table[1][:, 0] == 1
    assert np.all(np.isfinite(logw)) and np.all(logw[plus] < -1000) and np.all(logw[~plus] > -5)
    assert_allclose(logsumexp(logw), 0.0, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_exact_score_provider_is_finite_where_every_seed_tail_is_tiny():
    """Every seed has bit +1 everywhere, and coordinate 2 is on an eps/2-phase atom: each
    seed's tail is about e^-1250, yet the provider returns a finite score."""
    params = canonical_params(2, 2)
    f = constant_candidate(2, np.array([1, 1]))
    x = np.array([[30.0, 30.0, 0.5, 0.0]])
    got = provider_by_name("exact", params, f)(0.01, x)
    assert np.all(np.isfinite(got))
    assert_relative_max(got, logsumexp_mixture(params, f, 0.01, x)[0], 1e-12)


def test_exact_score_is_finite_along_large_sigma_chains():
    """The exact score can be read at every point of a chain another provider drives: 500
    large-sigma chains of 200 steps end near the lattices at small sigma, where a tail point
    is often far from one phase; no chain point's exact score is NaN."""
    params = canonical_params(2, 2)
    f = random_circuit_owf(2, 2, 6, 501)
    points = []

    def large_sigma(sigma, x):
        points.append((sigma, x))
        return large_sigma_score(params, sigma, x)

    cfg = default_config(params, N=200)
    reverse_run(ScoreProvider("large-sigma", large_sigma), cfg, np.random.default_rng(0), 500, 4)
    assert len(points) == 200
    for sigma, x in points:
        assert np.all(np.isfinite(mixture_score_exact(params, f, sigma, x)))


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


def test_exact_score_and_seed_weights_make_one_pair_call_per_name(monkeypatch):
    """mixture_score_exact asks for both phases' log densities in one call and their scores in
    another, on both routes; seed_posterior_log_weights asks for the log densities once."""
    from phaselab import posterior

    calls = []
    for mod, name in [(scores, "dg_smoothed_log_density"), (scores, "dg_smoothed_score"),
                      (posterior, "dg_smoothed_log_density")]:
        fn = getattr(mod, name)
        wrapped = lambda spec, x, fn=fn, name=name: calls.append(name) or fn(spec, x)
        monkeypatch.setattr(mod, name, wrapped)
    params, f = canonical_params(2, 2), sign_identity(2)
    x = np.random.default_rng(5).standard_normal((20, 4))
    for sigma in (0.1, 1.0):  # the lattice and the series route
        calls.clear()
        mixture_score_exact(params, f, sigma, x)
        assert sorted(calls) == ["dg_smoothed_log_density", "dg_smoothed_score"]
    calls.clear()
    seed_posterior_log_weights(Measurement(params, f, x[:3, 2:]))
    assert calls == ["dg_smoothed_log_density"]


def test_orthant_score_runs_one_lattice_sum_per_phase(monkeypatch):
    """The orthant surrogate reads only the phase scores, never their log densities."""
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


def test_exact_provider_past_the_enumeration_limit_fails_when_built():
    """The exact score enumerates the seeds, so it fails when made; the orthant score does not."""
    params, f = canonical_params(13, 13), sign_identity(13)
    with pytest.raises(ValueError, match="seed enumeration is limited to d <= 12"):
        provider_by_name("exact", params, f)
    assert provider_by_name("orthant", params, f).label == "orthant"


def test_tail_phases_differ():
    """The two phase lattices are distinguishable at moderate smoothing."""
    eps = 1.0
    x = np.linspace(-2, 2, 201)
    d0 = density(DiscreteGaussianSpec(eps, phase_of_bit(1, eps), 0.2), x)
    d1 = density(DiscreteGaussianSpec(eps, phase_of_bit(-1, eps), 0.2), x)
    assert np.max(np.abs(d0 - d1)) > 0.5
