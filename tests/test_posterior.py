import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaselab import rng as prng
from phaselab.circuits import sign_identity
from phaselab.diagnostics import tv_binned
from phaselab.instance import (
    canonical_params,
    measurement_matrix,
    round_R,
    sample_unconditional,
)
from phaselab.posterior import (
    PosteriorConfig,
    acceptance_curve,
    brute_force_posterior,
    rejection_sample,
    seed_posterior_log_weights,
)
from phaselab.reduction import random_circuit_owf, sample_measurement_for_target


def test_config_validation():
    with pytest.raises(ValueError):
        PosteriorConfig(0, 0.1)
    with pytest.raises(ValueError):
        PosteriorConfig(10, 0.0)


def test_rejects_expanding_measurement():
    cfg = PosteriorConfig(10, 0.1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        rejection_sample(lambda n, r: np.zeros((n, 2)), 3.0 * np.eye(2), np.zeros(2), cfg, rng)


def test_accepts_immediately_when_residual_zero():
    cfg = PosteriorConfig(5, 0.1)
    rng = np.random.default_rng(1)
    y = np.array([0.3, -0.2])
    x, stats = rejection_sample(lambda n, r: np.tile(y, (n, 1)), np.eye(2), y, cfg, rng)
    assert stats.rounds == 1 and stats.accepted
    assert_allclose(x, y)


def test_acceptance_probability_formula():
    """Residual norm beta*sqrt(2 ln 2) gives acceptance probability 1/2."""
    beta = 0.3
    x0 = np.array([beta * np.sqrt(2.0 * np.log(2.0))])
    cfg = PosteriorConfig(1, beta)
    rng = np.random.default_rng(2)
    hits = sum(
        rejection_sample(lambda n, r: np.tile(x0, (n, 1)), np.eye(1), np.zeros(1), cfg, rng)[0]
        is not None
        for _ in range(10_000)
    )
    assert abs(hits / 10_000 - 0.5) <= 0.015


def test_budget_exhaustion_is_reported_not_raised():
    cfg = PosteriorConfig(50, 0.01)
    rng = np.random.default_rng(3)
    far = np.array([5.0])
    x, stats = rejection_sample(lambda n, r: np.tile(far, (n, 1)), np.eye(1), np.zeros(1), cfg, rng)
    assert x is None and not stats.accepted and stats.rounds == 50


def test_rejection_size_budget_exhaustion_is_reported():
    """size=k shares a budget of k*max_rounds; running out returns the rows found."""
    cfg = PosteriorConfig(50, 0.3)
    rng = np.random.default_rng(4)
    # x = 0 always accepts; x = 5 at beta = 0.3 never does in practice (log q = -139)
    proposal = lambda n, r: np.where(np.arange(n)[:, None] % 100 == 0, 0.0, 5.0)
    x, stats = rejection_sample(proposal, np.eye(1), np.zeros(1), cfg, rng, size=10)
    assert np.array_equal(x, np.zeros((5, 1)))
    assert not stats.accepted and stats.rounds == 500


def test_rejection_size_none_matches_first_row_of_size_one():
    params = canonical_params(2, 2, beta=0.3)
    f = sign_identity(2)
    A = measurement_matrix(params)
    y = np.array([0.4, -1.2])
    cfg = PosteriorConfig(10**5, params.beta)
    proposal = lambda n, r: sample_unconditional(params, f, r, size=n)[1]
    x1, s1 = rejection_sample(proposal, A, y, cfg, np.random.default_rng(11))
    xk, sk = rejection_sample(proposal, A, y, cfg, np.random.default_rng(11), size=1)
    assert xk.shape == (1, 4) and s1.accepted and sk.accepted
    assert np.array_equal(x1, xk[0]) and s1.rounds == sk.rounds > 1


def test_seed_enumeration_rejects_candidate_of_other_length():
    from phaselab.scores import mixture_score_exact

    params = canonical_params(3, 3)
    f = sign_identity(2)
    with pytest.raises(ValueError, match="input length"):
        seed_posterior_log_weights(params, f, np.zeros(3))
    with pytest.raises(ValueError, match="input length"):
        brute_force_posterior(params, f, np.zeros(3), np.random.default_rng(0))
    with pytest.raises(ValueError, match="input length"):
        mixture_score_exact(params, f, 1.0, np.zeros(6))


def test_seed_enumeration_limit_is_one_check_with_one_message():
    from phaselab.scores import mixture_score_exact

    params = canonical_params(13, 13)
    f = sign_identity(13)
    msg = "seed enumeration is limited to d <= 12"
    with pytest.raises(ValueError, match=msg):
        f.seed_table
    with pytest.raises(ValueError, match=msg):
        seed_posterior_log_weights(params, f, np.zeros(13))
    with pytest.raises(ValueError, match=msg):
        brute_force_posterior(params, f, np.zeros(13), np.random.default_rng(0))
    with pytest.raises(ValueError, match=msg):
        mixture_score_exact(params, f, 1.0, np.zeros(26))


def test_seed_posterior_weights_normalized_and_peaked():
    params = canonical_params(3, 3)
    f = sign_identity(3)
    rng = np.random.default_rng(5)
    s = np.array([1, -1, 1])
    y = sample_measurement_for_target(f(s), params, rng)
    logw = seed_posterior_log_weights(params, f, y)
    assert_allclose(np.exp(logw).sum(), 1.0, rtol=1e-12)
    # the true seed class dominates at beta = eps/40
    from phaselab.circuits import all_inputs

    S = all_inputs(3)
    best = S[np.argmax(logw)]
    assert np.array_equal(f(best), f(s))


small_instances = given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.sampled_from([0.025, 0.1, 0.3]),
    st.integers(0, 2**31),
)


@small_instances
@settings(max_examples=30, deadline=None)
def test_batched_seed_weights_rows_equal_single_measurement(d, d_prime, n, beta, seed):
    params = canonical_params(d, d_prime, beta=beta)
    f = random_circuit_owf(d, d_prime, 2 * d_prime, seed)
    y = np.random.default_rng(seed).uniform(-2, 2, size=(n, d_prime))
    batched = seed_posterior_log_weights(params, f, y)
    assert batched.shape == (n, 2**d)
    for i in range(n):
        assert np.array_equal(batched[i], seed_posterior_log_weights(params, f, y[i]))


@small_instances
@settings(max_examples=30, deadline=None)
def test_brute_force_on_tiled_measurement_equals_size_n_draws(d, d_prime, n, beta, seed):
    params = canonical_params(d, d_prime, beta=beta)
    f = random_circuit_owf(d, d_prime, 2 * d_prime, seed)
    y = np.random.default_rng(seed).uniform(-2, 2, size=d_prime)
    tiled = brute_force_posterior(params, f, np.tile(y, (n, 1)), np.random.default_rng(seed))
    sized = brute_force_posterior(params, f, y, np.random.default_rng(seed), size=n)
    assert tiled.shape == (n, params.dim) and np.array_equal(tiled, sized)


@pytest.mark.filterwarnings("error")
def test_brute_force_rejects_measurement_that_no_seed_explains():
    """A y with zero likelihood under every seed has no posterior to sample."""
    params = canonical_params(2, 2)
    for y in (np.full(2, 1000.0), np.array([[0.0, 0.0], [1000.0, 1000.0]])):
        with pytest.raises(ValueError, match="zero likelihood under every seed"):
            brute_force_posterior(params, sign_identity(2), y, np.random.default_rng(0))


def test_brute_force_posterior_head_matches_seed_law():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(6)
    s = np.array([-1, 1])
    y = sample_measurement_for_target(f(s), params, rng)
    x = brute_force_posterior(params, f, y, rng, size=4000)
    # decoded seeds all map onto the observed bit pattern
    guesses = round_R(x[:, :2], params.R)
    assert np.mean(np.all(f(guesses) == f(s), axis=1)) > 0.999
    # head coordinates are unit Gaussians around R*s
    resid = x[:, :2] - params.R * guesses
    assert_allclose(resid.std(axis=0), 1.0, atol=0.05)


def test_rejection_matches_brute_force_small_run():
    """Mini version of the headline comparison: binned TV on 20k samples."""
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(7)
    s = np.array([1, -1])
    y = sample_measurement_for_target(f(s), params, rng)
    oracle = brute_force_posterior(params, f, y, rng, size=20_000)
    cfg = PosteriorConfig(10**6, params.beta)
    A = measurement_matrix(params)
    proposal = lambda n, r: sample_unconditional(params, f, r, size=n)[1]
    got, _ = rejection_sample(proposal, A, y, cfg, rng, size=20_000)
    rep = tv_binned(oracle, got, rng=np.random.default_rng(0))
    assert rep.value <= 0.05


def test_tail_posterior_concentrates_near_measurement():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(8)
    y = np.array([2.0, -1.5])  # exact lattice points of the +1 phase
    x = brute_force_posterior(params, f, y, rng, size=2000)
    # beta = 0.025: the posterior tail sits on the nearest atoms
    assert_allclose(x[:, 2:], np.tile(y, (2000, 1)), atol=1e-9)


def test_acceptance_curve_rows_and_monotonicity():
    rows = acceptance_curve([0.2, 0.4], [0, 2], trials=25, master_seed=1)
    table = {(r["beta"], r["m"]): r for r in rows}
    assert table[(0.2, 0)]["mean_rounds"] == 1.0
    # doubling beta at fixed m reduces the expected rounds
    assert table[(0.4, 2)]["mean_rounds"] < table[(0.2, 2)]["mean_rounds"]
    # more measurements cost more rounds
    assert table[(0.2, 2)]["mean_rounds"] > table[(0.2, 0)]["mean_rounds"]


def test_acceptance_curve_row_does_not_depend_on_the_other_rows():
    """Trial t of row m draws from a stream keyed by (master_seed, m, t) alone."""

    def m2_row(betas, ms):
        rows = acceptance_curve(betas, ms, trials=5, master_seed=3)
        return next(r for r in rows if (r["beta"], r["m"]) == (0.3, 2))

    want = m2_row([0.3], [2])
    assert m2_row([0.3], [1, 2]) == want
    assert m2_row([0.5, 0.3], [2]) == want


def test_row_streams_meet_no_trial_or_batch_stream():
    """A row's child stream (m, t) differs from every stream(seed, i)."""
    first = lambda r: int(r.integers(2**62))
    rows = {first(prng.child_stream(3, m, t)) for m in (1, 2) for t in range(3)}
    others = {first(prng.stream(3, i)) for i in (0, 1, 2, prng.BATCH)}
    assert len(rows) == 6 and not rows & others


def test_heuristic_posterior_uninformative_limit():
    """With huge beta the guidance vanishes and marginals match the prior family."""
    from phaselab.diffusion import default_config
    from phaselab.posterior import heuristic_posterior_sample
    from phaselab.scores import provider_by_name

    params = canonical_params(1, 1, beta=50.0)
    f = sign_identity(1)
    provider = provider_by_name("exact", params, f)
    A = measurement_matrix(params)
    rng = np.random.default_rng(9)
    x = heuristic_posterior_sample(
        provider, A, np.zeros(1), PosteriorConfig(1, params.beta),
        default_config(params, N=800), rng, size=4000,
    )
    # head marginal: half the mass near each of -R and +R
    frac = np.mean(x[:, 0] > 0)
    assert abs(frac - 0.5) < 0.05
    assert np.mean(np.abs(np.abs(x[:, 0]) - params.R) < 5) > 0.95
