from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from phaselab import posterior
from phaselab import rng as prng
from phaselab.circuits import BooleanCircuit, all_inputs, no_output_candidate
from phaselab.circuits import sign_identity
from phaselab.instance import (
    InstanceParams,
    bits_eps,
    canonical_params,
    lattice_atoms,
    measurement_matrix,
    phase_of_bit,
    round_R,
    sample_unconditional,
)
from phaselab.posterior import (
    Measurement,
    PosteriorConfig,
    acceptance_curve,
    brute_force_posterior,
    draw_given_seeds,
    rejection_sample,
    seed_law_tv,
    seed_posterior_log_weights,
)
from phaselab.reduction import random_circuit_owf, sample_measurement_for_target

from lemmas import constant_candidate, tv_binned


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
    assert_allclose(x, [y])


def test_acceptance_probability_formula():
    """Residual norm beta*sqrt(2 ln 2) gives acceptance probability 1/2."""
    beta = 0.3
    x0 = np.array([beta * np.sqrt(2.0 * np.log(2.0))])
    cfg = PosteriorConfig(1, beta)
    rng = np.random.default_rng(2)
    hits = sum(
        len(rejection_sample(lambda n, r: np.tile(x0, (n, 1)), np.eye(1), np.zeros(1), cfg, rng)[0])
        for _ in range(10_000)
    )
    assert abs(hits / 10_000 - 0.5) <= 0.015


def test_budget_exhaustion_is_reported_not_raised():
    cfg = PosteriorConfig(50, 0.01)
    rng = np.random.default_rng(3)
    far = np.array([5.0])
    x, stats = rejection_sample(lambda n, r: np.tile(far, (n, 1)), np.eye(1), np.zeros(1), cfg, rng)
    assert x.shape == (0, 1) and not stats.accepted and stats.rounds == 50


def test_rejection_size_budget_exhaustion_is_reported():
    """size=k shares a budget of k*max_rounds; running out returns the rows found."""
    cfg = PosteriorConfig(50, 0.3)
    rng = np.random.default_rng(4)
    # x = 0 always accepts; x = 5 at beta = 0.3 never does in practice (log q = -139)
    proposal = lambda n, r: np.where(np.arange(n)[:, None] % 100 == 0, 0.0, 5.0)
    x, stats = rejection_sample(proposal, np.eye(1), np.zeros(1), cfg, rng, size=10)
    assert np.array_equal(x, np.zeros((5, 1)))
    assert not stats.accepted and stats.rounds == 500


@pytest.mark.parametrize(
    "size, max_rounds, chunk, want",
    [
        # 256 * 2^i up to the 65536 cap, then 65536 until the last chunk meets the budget
        (None, 200_000, None, [256 * 2**i for i in range(9)] + [65536, 3648]),
        (3, 1000, None, [768, 1536, 696]),
        (300, 500, None, [65536, 65536, 18928]),
        (None, 250, 100, [100, 100, 50]),
    ],
)
def test_rejection_chunk_schedule(size, max_rounds, chunk, want):
    """Default chunks double from 256 * size to 65536; an explicit chunk stays fixed.
    Every chunk is capped at the budget left."""
    calls = []

    def proposal(n, r):
        calls.append(n)
        return np.full((n, 1), 5.0)  # log q = -125000 at beta 0.01: never accepted

    cfg = PosteriorConfig(max_rounds, 0.01)
    rng = np.random.default_rng(5)
    sized = {} if size is None else {"size": size}  # None: the default size, one draw
    _, stats = rejection_sample(proposal, np.eye(1), np.zeros(1), cfg, rng, chunk=chunk, **sized)
    assert calls == want
    assert not stats.accepted and stats.rounds == sum(want) == (size or 1) * max_rounds


def test_rejection_rounds_are_geometric_across_chunk_boundaries():
    """x ~ N(0, 1), A = [[1]], y = 2: each proposal is accepted with probability
    p = beta / sqrt(1 + beta^2) * exp(-y^2 / (2 (1 + beta^2))), so rounds are
    geometric with mean 1/p (about 739, past the 256 and 768 chunk boundaries) and
    variance (1 - p) / p^2. The mean of 400 streams is within 4 standard errors."""
    beta, y, trials = 0.01, 2.0, 400
    p = beta / np.sqrt(1 + beta**2) * np.exp(-(y**2) / (2 * (1 + beta**2)))
    cfg = PosteriorConfig(10**5, beta)
    proposal = lambda n, r: r.standard_normal((n, 1))
    rounds = []
    for t in range(trials):
        x, stats = rejection_sample(proposal, np.eye(1), np.array([y]), cfg, prng.stream(7, t))
        assert stats.accepted and x.shape == (1, 1)
        rounds.append(stats.rounds)
    se = np.sqrt((1 - p) / p**2 / trials)
    assert abs(np.mean(rounds) - 1 / p) <= 4 * se


def _batch_instance(m, beta, trials, seed):
    """A d = d' = m sign-identity instance, its exact proposal, A = (0 | I) (so residuals are
    exact) and the measurements of `trials` targets, each from its own fresh stream."""
    params = InstanceParams(m, m, 30.0, 1.0, beta)
    f = sign_identity(m)
    proposal = lambda n, r: sample_unconditional(params, f, r, size=n)[1]
    streams = lambda: [prng.stream(seed, t) for t in range(trials)]
    z = f(np.stack([prng.signs(r, m) for r in streams()]))
    return proposal, measurement_matrix(params), sample_measurement_for_target(z, params, streams())


@pytest.mark.parametrize("m, beta, trials", [(1, 0.3, 3), (2, 0.3, 40), (2, 0.1, 9)])
def test_batched_rejection_equals_lone_calls(m, beta, trials):
    """Row i of a batch is the lone call on y[i] with generator i: the same draw, bit for bit,
    and the same rounds. 40 trials at 256 rows a chunk take three proposal calls a round."""
    proposal, A, y = _batch_instance(m, beta, trials, seed=11)
    cfg = PosteriorConfig(10**6, beta)
    lone = [rejection_sample(proposal, A, y[t], cfg, prng.child_stream(5, t)) for t in range(trials)]
    streams = [prng.child_stream(5, t) for t in range(trials)]
    x, stats = rejection_sample(proposal, A, y, cfg, streams, size=trials)
    assert np.array_equal(x, np.concatenate([rows for rows, _ in lone]))
    assert stats == posterior.SamplerStats(sum(st.rounds for _, st in lone), True)
    # each generator ends where its lone call left it
    want = [prng.child_stream(5, t) for t in range(trials)]
    for t, r in enumerate(want):
        rejection_sample(proposal, A, y[t], cfg, r)
    assert [r.random() for r in streams] == [r.random() for r in want]


def test_batched_rejection_row_out_of_budget_is_nan():
    """A row whose budget runs out is NaN, counts max_rounds rounds and makes accepted False;
    the other rows are unchanged by it."""
    proposal, A, y = _batch_instance(2, 0.3, 4, seed=12)
    y[2] = 40.0  # 40 from every lattice point at beta 0.3: log q < -5000, never accepted
    cfg = PosteriorConfig(20, 0.3)
    lone = [rejection_sample(proposal, A, y[t], cfg, prng.stream(6, t)) for t in range(4)]
    x, stats = rejection_sample(proposal, A, y, cfg, [prng.stream(6, t) for t in range(4)], size=4)
    assert lone[2][1] == posterior.SamplerStats(20, False)
    want = [rows[0] if st.accepted else np.full(4, np.nan) for rows, st in lone]
    assert np.array_equal(x, want, equal_nan=True)
    assert stats == posterior.SamplerStats(sum(st.rounds for _, st in lone), False)


def test_batched_rejection_needs_one_generator_and_one_draw_per_row():
    proposal, A, y = _batch_instance(1, 0.3, 3, seed=13)
    cfg = PosteriorConfig(10, 0.3)
    gens = [prng.stream(0, t) for t in range(3)]
    for bad in ({"rng": gens[:2], "size": 3}, {"rng": gens, "size": 2}):
        with pytest.raises(ValueError, match="one generator per row"):
            rejection_sample(proposal, A, y, cfg, **bad)


@pytest.mark.parametrize(
    "d, d_prime, k, size, const",
    [
        pytest.param(2, 2, 3, 30, None, id="2-2-3-30"),
        pytest.param(3, 1, 1, 8, None, id="3-1-1-8"),
        pytest.param(1, 3, 4, 4, None, id="1-3-4-4"),
        pytest.param(2, 3, 4, 12, 1, id="no-block-draws-bit-minus-1"),
        pytest.param(3, 2, 3, 9, -1, id="no-block-draws-bit-plus-1"),
        pytest.param(3, 0, 4, 8, None, id="d_prime-0"),
    ],
)
def test_sample_unconditional_generator_sequence_is_lone_blocks(d, d_prime, k, size, const):
    """k generators: generator i draws rows i*size/k to (i+1)*size/k as a lone call of size/k
    rows would, bit for bit, and is left in that call's state; also when a constant candidate
    leaves one bit undrawn and when there is no tail at all."""
    params = canonical_params(d, d_prime, beta=0.3)
    if const is not None:
        f = constant_candidate(d, np.full(d_prime, const))
    elif d_prime:
        f = random_circuit_owf(d, d_prime, 2 * (d + d_prime), seed=3)
    else:
        f = no_output_candidate(d)
    gens = [np.random.default_rng(40 + i) for i in range(k)]
    s, x = sample_unconditional(params, f, gens, size)
    b = size // k
    for i, r in enumerate(gens):
        lone = np.random.default_rng(40 + i)
        s_i, x_i = sample_unconditional(params, f, lone, b)
        assert np.array_equal(s[i * b : (i + 1) * b], s_i)
        assert np.array_equal(x[i * b : (i + 1) * b], x_i)
        assert r.random() == lone.random()


def test_sample_unconditional_generators_must_divide_size():
    params = canonical_params(2, 2)
    with pytest.raises(ValueError, match="multiple"):
        sample_unconditional(params, sign_identity(2), [np.random.default_rng(i) for i in range(3)], 4)


def test_seed_enumeration_rejects_candidate_of_other_length():
    from phaselab.scores import mixture_score_exact

    params = canonical_params(3, 3)
    f = sign_identity(2)
    with pytest.raises(ValueError, match="input length"):
        seed_posterior_log_weights(Measurement(params, f, np.zeros(3)))
    with pytest.raises(ValueError, match="input length"):
        brute_force_posterior(Measurement(params, f, np.zeros(3)), np.random.default_rng(0), size=1)
    with pytest.raises(ValueError, match="input length"):
        mixture_score_exact(params, f, 1.0, np.zeros((1, 6)))


def test_seed_enumeration_limit_is_one_check_with_one_message():
    from phaselab.scores import mixture_score_exact

    params = canonical_params(13, 13)
    f = sign_identity(13)
    msg = "seed enumeration is limited to d <= 12"
    with pytest.raises(ValueError, match=msg):
        f.seed_table
    with pytest.raises(ValueError, match=msg):
        seed_posterior_log_weights(Measurement(params, f, np.zeros(13)))
    with pytest.raises(ValueError, match=msg):
        brute_force_posterior(Measurement(params, f, np.zeros(13)), np.random.default_rng(0), 1)
    with pytest.raises(ValueError, match=msg):
        mixture_score_exact(params, f, 1.0, np.zeros((1, 26)))


def _no_seed_table(monkeypatch):
    """Make any read of a circuit's seed table (or of its float table, built from it) fail."""
    read = property(lambda c: pytest.fail("a seed table was read"))
    monkeypatch.setattr(BooleanCircuit, "seed_table", read)


_P32 = canonical_params(3, 2)


def _p32():
    return _P32


@pytest.mark.parametrize(
    "make_params, f, y, match",
    [
        (_p32, random_circuit_owf(2, 2, 4, 0), np.zeros(2), "input length mismatch"),
        (_p32, random_circuit_owf(3, 3, 6, 0), np.zeros(2), "output length mismatch"),
        (_p32, random_circuit_owf(3, 2, 4, 0), np.zeros(3), r"y must be \(2,\) or \(k, 2\)"),
        (_p32, random_circuit_owf(3, 2, 4, 0), np.zeros((2, 1, 2)), r"y must be \(2,\)"),
        # InstanceParams checks beta > 0, so a beta = 0 measurement fails as its params are built
        (
            lambda: replace(_P32, beta=0.0),
            random_circuit_owf(3, 2, 4, 0),
            np.zeros(2),
            "^field 'beta': must be > 0$",
        ),
    ],
    ids=["f-input-arity", "f-output-arity", "y-length", "y-3d", "beta-0"],
)
def test_measurement_refuses_bad_inputs_when_built(monkeypatch, make_params, f, y, match):
    """Each is ValueError at construction, before any seed table is built."""
    _no_seed_table(monkeypatch)
    with pytest.raises(ValueError, match=match):
        Measurement(make_params(), f, y)


def test_draw_given_seeds_past_the_enumeration_limit_and_as_the_oracle(monkeypatch):
    """At d = d' = 64, with a y per draw and with one y for 500 seeds, every head rounds to its
    seed and every tail decodes to f(s), and no seed table is read. At d = 6 the oracle is its
    seed draw, as Generator.choice draws from each row's weights, then draw_given_seeds on the
    picked table rows: the same draws and the same generator state."""
    with monkeypatch.context() as mp:
        _no_seed_table(mp)
        params, f = canonical_params(64, 64), random_circuit_owf(64, 64, 192, 7)
        rng = np.random.default_rng(4)
        for k, n in ((20, 20), (1, 500)):
            s = prng.signs(rng, (n, 64))
            y = sample_measurement_for_target(f(s[:k]), params, [rng] * k)
            x = draw_given_seeds(Measurement(params, f, y if k > 1 else y[0]), s, f(s), rng)
            assert x.shape == (n, params.dim)
            assert np.array_equal(round_R(x[:, :64], params.R), s)
            assert np.array_equal(bits_eps(x[:, 64:], params.eps), f(s))
    params, f = canonical_params(6, 6, beta=0.3), random_circuit_owf(6, 6, 18, 3)
    S, F = f.seed_table
    for shape in (6, (40, 6)):
        m = Measurement(params, f, np.random.default_rng(5).uniform(-2, 2, size=shape))
        rng, ref = np.random.default_rng(2), np.random.default_rng(2)
        got = brute_force_posterior(m, rng, 40)
        w = np.exp(m.log_weights)
        if w.ndim == 1:
            pick = ref.choice(2**6, size=40, p=w)
        else:
            cdf = np.cumsum(w, axis=1)
            pick = [np.searchsorted(c / c[-1], v, "right") for c, v in zip(cdf, ref.random(40))]
        assert np.array_equal(got, draw_given_seeds(m, S[pick], F[pick], ref))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_seed_posterior_weights_normalized_and_peaked():
    params = canonical_params(3, 3)
    f = sign_identity(3)
    rng = np.random.default_rng(5)
    s = np.array([1, -1, 1])
    y = sample_measurement_for_target(f(s)[None], params, [rng])[0]
    logw = seed_posterior_log_weights(Measurement(params, f, y))
    assert_allclose(np.exp(logw).sum(), 1.0, rtol=1e-12)
    # the true seed class dominates at beta = eps/40
    from phaselab.circuits import all_inputs

    S = all_inputs(3)
    best = S[np.argmax(logw)]
    assert np.array_equal(f(best), f(s))


def scipy_logsumexp(a):
    return logsumexp(a, axis=-1, keepdims=True)


def assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@given(
    st.integers(1, 3), st.integers(1, 4096), st.floats(-300, 3), st.floats(0, 1),
    st.integers(0, 8), st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_logsumexp_is_scipys_bit_for_bit(rows, n, log_scale, p_neginf, ties, seed):
    """Magnitudes 1e-300 to 1e3, -inf entries and tied maxima; every row keeps a finite entry."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, n)) * 10.0**log_scale
    a[rng.random((rows, n)) < p_neginf] = -np.inf
    a[np.arange(rows), rng.integers(0, n, size=rows)] = rng.standard_normal(rows) * 10.0**log_scale
    a[:, rng.integers(0, n, size=ties)] = a.max(axis=1, keepdims=True)
    assert_same_bits(posterior._logsumexp(a), scipy_logsumexp(a))


def accepted_or_none(run, *args, **kwargs):
    """run(*args, **kwargs), or None where it rejects y: its likelihood summed over the seeds
    is below e^-700. At beta = 0.025 a y drawn from U(-2, 2)^d_prime can be such a y."""
    try:
        return run(*args, **kwargs)
    except ValueError as e:
        if "zero likelihood under every seed" not in str(e):
            raise
        return None


# examples: at d_prime = 7 the only row is rejected; at d_prime = 4, n = 5 the fourth row alone
@given(
    st.integers(1, 10), st.integers(1, 8), st.integers(1, 5), st.sampled_from([0.025, 0.1, 0.3]),
    st.integers(0, 2**31),
)
@example(d=1, d_prime=7, n=1, beta=0.025, seed=46073)
@example(d=1, d_prime=4, n=5, beta=0.025, seed=1351)
@settings(max_examples=40, deadline=None)
def test_seed_weights_normalise_as_scipy_logsumexp_does(d, d_prime, n, beta, seed):
    """Each row alone, the whole batch and the batch of accepted rows: a y that is rejected is
    rejected by the run normalised with scipy's logsumexp too; otherwise the weights are equal
    bit for bit."""
    params = canonical_params(d, d_prime, beta=beta)
    f = random_circuit_owf(d, d_prime, 2 * d_prime, seed)
    y = np.random.default_rng(seed).uniform(-2, 2, size=(n, d_prime))

    def accepted(y) -> bool:
        got = accepted_or_none(seed_posterior_log_weights, Measurement(params, f, y))
        with mock.patch.object(posterior, "_logsumexp", scipy_logsumexp):
            want = accepted_or_none(seed_posterior_log_weights, Measurement(params, f, y))
        assert (got is None) == (want is None)
        if got is not None:
            assert_same_bits(got, want)
        return got is not None

    rows = np.array([accepted(row) for row in y])
    assert accepted(y) == rows.all()
    if rows.any():
        assert accepted(y[rows])


small_instances = given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.sampled_from([0.025, 0.1, 0.3]),
    st.integers(0, 2**31),
)


@small_instances
@example(d=1, d_prime=4, n=1, beta=0.025, seed=6345)  # the only row is rejected
@example(d=1, d_prime=4, n=6, beta=0.025, seed=1351)  # the fourth row alone is rejected
@settings(max_examples=30, deadline=None)
def test_batched_seed_weights_rows_equal_single_measurement(d, d_prime, n, beta, seed):
    """A batch is rejected when one of its rows is rejected alone; the batch of the accepted
    rows gives each row's own weights."""
    params = canonical_params(d, d_prime, beta=beta)
    f = random_circuit_owf(d, d_prime, 2 * d_prime, seed)
    y = np.random.default_rng(seed).uniform(-2, 2, size=(n, d_prime))
    single = [accepted_or_none(seed_posterior_log_weights, Measurement(params, f, r)) for r in y]
    rows = np.array([w is not None for w in single])
    batch = Measurement(params, f, y)
    assert (accepted_or_none(seed_posterior_log_weights, batch) is not None) == rows.all()
    if not rows.any():
        return
    batched = seed_posterior_log_weights(Measurement(params, f, y[rows]))
    assert batched.shape == (rows.sum(), 2**d)
    for b, w in zip(batched, [w for w in single if w is not None]):
        assert np.array_equal(b, w)


@small_instances
@example(d=1, d_prime=4, n=1, beta=0.025, seed=6345)  # y is rejected
@settings(max_examples=30, deadline=None)
def test_brute_force_on_tiled_measurement_equals_size_n_draws(d, d_prime, n, beta, seed):
    """A y is rejected by both call forms or by neither; if neither, they draw the same."""
    params = canonical_params(d, d_prime, beta=beta)
    f = random_circuit_owf(d, d_prime, 2 * d_prime, seed)
    y = np.random.default_rng(seed).uniform(-2, 2, size=d_prime)
    rows, one = Measurement(params, f, np.tile(y, (n, 1))), Measurement(params, f, y)
    tiled = accepted_or_none(brute_force_posterior, rows, np.random.default_rng(seed), n)
    sized = accepted_or_none(brute_force_posterior, one, np.random.default_rng(seed), size=n)
    assert (tiled is None) == (sized is None)
    if tiled is not None:
        assert tiled.shape == (n, params.dim) and np.array_equal(tiled, sized)


@pytest.mark.filterwarnings("error")
def test_brute_force_rejects_measurement_that_no_seed_explains():
    """A y with zero likelihood under every seed has no posterior to sample."""
    params = canonical_params(2, 2)
    for y in (np.full(2, 1000.0), np.array([[0.0, 0.0], [1000.0, 1000.0]])):
        with pytest.raises(ValueError, match="^y has zero likelihood under every seed$"):
            seed_posterior_log_weights(Measurement(params, sign_identity(2), y))
        with pytest.raises(ValueError, match="zero likelihood under every seed"):
            m = Measurement(params, sign_identity(2), y)
            brute_force_posterior(m, np.random.default_rng(0), size=2)


def _reference_brute_force_posterior(params, f, y, rng, size=None):
    """The brute-force oracle as it was written before its tail CDFs were shared:
    one (draws, atoms) lattice-posterior table per (coordinate, bit). Each tail draw
    counts the CDF entries <= u, as Generator.choice's search with side="right" does."""

    def tail_draws(eps, phase, beta, y, rng):
        pts, p = lattice_atoms(eps, phase)
        logpost = np.log(p)[None, :] - (y[:, None] - pts[None, :]) ** 2 / (2.0 * beta**2)
        logpost -= logpost.max(axis=1, keepdims=True)
        w = np.exp(logpost)
        w /= w.sum(axis=1, keepdims=True)
        cdf = np.cumsum(w, axis=1)
        u = rng.random(y.shape[0])
        return pts[(u[:, None] >= cdf).sum(axis=1)]

    y = np.asarray(y, dtype=float)
    n = (len(y) if y.ndim == 2 else 1) if size is None else size
    cdf = np.cumsum(np.exp(seed_posterior_log_weights(Measurement(params, f, y))), axis=-1)
    cdf /= cdf[..., -1:]
    u = rng.random(n)
    if cdf.ndim == 1:
        pick = np.searchsorted(cdf, u, side="right")
    else:
        pick = (cdf <= u[:, None]).sum(axis=1)
    S, F = f.seed_table
    x = np.empty((n, params.dim))
    x[:, : params.d] = params.R * S[pick] + rng.standard_normal((n, params.d))
    bits = F[pick]
    Y = np.broadcast_to(y, (n, params.d_prime))
    for j in range(params.d_prime):
        for b in (1, -1):
            mask = bits[:, j] == b
            if mask.any():
                x[mask, params.d + j] = tail_draws(
                    params.eps, phase_of_bit(b, params.eps), params.beta, Y[mask, j], rng
                )
    return x[0] if size is None and y.ndim == 1 else x


class _CoarseRng:
    """A Generator whose uniforms are rounded down to quarters, so that some equal
    CDF entries exactly: 0.0 equals every entry before the first atom of nonzero weight."""

    def __init__(self, seed):
        self._g = np.random.default_rng(seed)

    def random(self, n):
        return np.floor(self._g.random(n) * 4) / 4

    def standard_normal(self, shape):
        return self._g.standard_normal(shape)


@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("beta", [0.025, 0.3])
@pytest.mark.parametrize("batched", [False, True], ids=["one-y", "y-per-draw"])
@pytest.mark.parametrize("make_rng", [np.random.default_rng, _CoarseRng], ids=["rng", "coarse"])
def test_brute_force_draws_as_inline_reference(d, beta, batched, make_rng):
    """One tail CDF per measurement row draws exactly what one CDF per draw drew,
    ties of u with a CDF entry included.

    A y per draw costs a (size, 2^d) seed-weight table per call, so that case runs
    20000 draws at two seeds only."""
    params = canonical_params(d, d, beta=beta)
    for seed in range(10):
        f = random_circuit_owf(d, d, 2 * d, seed)
        for size in (1, 7, 20_000) if seed < 2 or not batched else (1, 7):
            shape = (size, d) if batched else d
            y = np.random.default_rng(seed).uniform(-2, 2, size=shape)
            got = brute_force_posterior(Measurement(params, f, y), make_rng(seed), size=size)
            want = _reference_brute_force_posterior(params, f, y, make_rng(seed), size=size)
            assert np.array_equal(got, want), (seed, size)


def _per_group_brute_force_posterior(params, f, y, rng, size=None):
    """The brute-force oracle's tail as one lattice-posterior draw call per (coordinate j,
    bit) group, j outer, bit +1 then -1, empty groups skipped; each call draws its group's
    uniforms and searches one CDF row per measurement it is given."""

    def tail_draws(phase, ys, n):
        pts, p = lattice_atoms(params.eps, phase)
        logpost = np.log(p) - (ys[:, None] - pts) ** 2 / (2.0 * params.beta**2)
        logpost -= logpost.max(axis=1, keepdims=True)
        w = np.exp(logpost)
        w /= w.sum(axis=1, keepdims=True)
        cdf = np.cumsum(w, axis=1)
        cdf[:, -1] = 1.0
        u = rng.random(n)
        rows = np.arange(n) if len(ys) > 1 else np.zeros(n, dtype=int)
        return pts[(cdf[rows] <= u[:, None]).sum(axis=1)]

    y = np.asarray(y, dtype=float)
    n = (len(y) if y.ndim == 2 else 1) if size is None else size
    cdf = np.cumsum(np.exp(seed_posterior_log_weights(Measurement(params, f, y))), axis=-1)
    cdf /= cdf[..., -1:]
    u = rng.random(n)
    if cdf.ndim == 1:
        pick = np.searchsorted(cdf, u, side="right")
    else:
        pick = (cdf <= u[:, None]).sum(axis=1)
    S, F = f.seed_table
    x = np.empty((n, params.dim))
    x[:, : params.d] = params.R * S[pick] + rng.standard_normal((n, params.d))
    bits = F[pick]
    Y = np.atleast_2d(y)
    for j in range(params.d_prime):
        for b in (1, -1):
            sel = np.flatnonzero(bits[:, j] == b)
            if sel.size:
                ys = Y[:, j] if len(Y) == 1 else Y[sel, j]
                x[sel, params.d + j] = tail_draws(phase_of_bit(b, params.eps), ys, sel.size)
    return x[0] if size is None and y.ndim == 1 else x


@pytest.mark.parametrize("d_prime", [0, 1, 8])
@pytest.mark.parametrize("batched", [False, True], ids=["one-y", "y-per-draw"])
def test_brute_force_tail_draws_and_state_as_per_group_calls(d_prime, batched):
    """The tail's uniforms, drawn group by group and looked up once per phase, give the
    draws and the generator state of one draw call per (coordinate, bit) group."""
    params = canonical_params(4, d_prime, beta=0.3)
    for seed in range(5):
        f = random_circuit_owf(4, d_prime, 8, seed) if d_prime else no_output_candidate(4)
        n = 300 if batched else 5000
        shape = (n, d_prime) if batched else d_prime
        y = np.random.default_rng(seed).uniform(-2, 2, size=shape)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = brute_force_posterior(Measurement(params, f, y), rng, size=n)
        want = _per_group_brute_force_posterior(params, f, y, ref, size=n)
        assert got.shape == (n, params.dim) and np.array_equal(got, want), seed
        assert rng.bit_generator.state == ref.bit_generator.state


class _ConstantRng:
    """Every uniform draw is u; normals are 0."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_tail_draw_with_cdf_rounded_below_one_stays_on_lattice():
    """At y = -5.772 the bit -1 lattice posterior's CDF sums to 1 - 3.3e-16; a u above
    that picks the last atom (it indexed one past the lattice before)."""
    params = InstanceParams(1, 1, 30.0, 1.0, 0.3)
    f = constant_candidate(1, np.array([-1]))
    top = _ConstantRng(np.nextafter(1.0, 0.0))
    x = brute_force_posterior(Measurement(params, f, np.array([-5.772])), top, size=3)
    pts, _ = lattice_atoms(1.0, 0.5)
    assert np.array_equal(x[:, 1], np.full(3, pts[-1]))


def test_tail_draw_at_zero_uniform_skips_zero_weight_atoms():
    """At y = 2 and beta 0.025 every atom more than 1/2 from y has posterior weight 0
    in double precision; u = 0 picked the lattice's first atom, -12, before."""
    params, f = canonical_params(1, 1), sign_identity(1)
    x = brute_force_posterior(Measurement(params, f, [2.0]), _ConstantRng(0.0), size=2)
    assert np.all(np.abs(x[:, 1] - 2.0) <= 0.5), x[:, 1]


def test_brute_force_posterior_head_matches_seed_law():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(6)
    s = np.array([-1, 1])
    y = sample_measurement_for_target(f(s)[None], params, [rng])[0]
    x = brute_force_posterior(Measurement(params, f, y), rng, size=4000)
    # decoded seeds all map onto the observed bit pattern
    guesses = round_R(x[:, :2], params.R)
    assert np.mean(np.all(f(guesses) == f(s), axis=1)) > 0.999
    # head coordinates are unit Gaussians around R*s
    resid = x[:, :2] - params.R * guesses
    assert_allclose(resid.std(axis=0), 1.0, atol=0.05)


def test_seed_law_tv_indexes_seeds_in_all_inputs_order():
    """Draws that all decode to seed k are 1 - w_k from the seed posterior w, whichever side
    of R s each head lies on; an empty set of draws has no law."""
    params = InstanceParams(2, 2, 30.0, 1.0, 0.3)
    f = sign_identity(2)
    y = np.array([0.3, 0.1])
    w = np.exp(seed_posterior_log_weights(Measurement(params, f, y)))
    assert np.min(np.abs(np.subtract.outer(w, w)) + np.eye(4)) > 0.01  # a wrong order shows
    for k, s in enumerate(all_inputs(2)):
        x = np.zeros((3, params.dim))
        x[:, :2] = params.R * s + np.array([[0.0, 0.0], [29.0, -29.0], [-29.0, 29.0]])
        assert seed_law_tv(Measurement(params, f, y), x) == pytest.approx(1.0 - w[k], abs=1e-12)
    assert seed_law_tv(Measurement(params, f, y), np.empty((0, params.dim))) is None


def test_seed_law_tv_refuses_a_measurement_of_several_rows():
    """k = 2 copies of one y would broadcast two weight rows against one law and sum both: twice
    the one-row distance. A (k, d') Measurement is ValueError instead."""
    params, f = InstanceParams(2, 2, 30.0, 1.0, 0.3), sign_identity(2)
    y = np.array([0.3, 0.1])
    x = np.zeros((3, params.dim))
    x[:, :2] = params.R
    assert seed_law_tv(Measurement(params, f, y), x) > 0.0
    with pytest.raises(ValueError, match=r"one \(d_prime,\) y"):
        seed_law_tv(Measurement(params, f, np.tile(y, (2, 1))), x)


def test_rejection_matches_brute_force_small_run():
    """Mini version of the headline comparison: binned TV on 20k samples."""
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(7)
    s = np.array([1, -1])
    y = sample_measurement_for_target(f(s)[None], params, [rng])[0]
    oracle = brute_force_posterior(Measurement(params, f, y), rng, size=20_000)
    cfg = PosteriorConfig(10**6, params.beta)
    A = measurement_matrix(params)
    proposal = lambda n, r: sample_unconditional(params, f, r, size=n)[1]
    got, _ = rejection_sample(proposal, A, y, cfg, rng, size=20_000)
    assert tv_binned(oracle, got) <= 0.05


def test_tail_posterior_concentrates_near_measurement():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(8)
    y = np.array([2.0, -1.5])  # exact lattice points of the +1 phase
    x = brute_force_posterior(Measurement(params, f, y), rng, size=2000)
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


def test_acceptance_curve_frozen_values():
    """Values recorded before a row's trials ran as one batch: no stream's draws moved."""
    rows = acceptance_curve([0.3], [0, 1, 2], 100, 501)
    assert [(r["mean_rounds"], r["censored"]) for r in rows] == [(1.0, 0), (9.06, 0), (204.92, 0)]
    rows = acceptance_curve([0.05], [2, 3], 20, 7, max_rounds=50)
    assert [(r["mean_rounds"], r["censored"]) for r in rows] == [(37.2, 10), (48.65, 19)]


def test_row_streams_meet_no_trial_or_batch_stream():
    """A row's child stream (m, t) differs from every stream(seed, i)."""
    first = lambda r: int(r.integers(2**62))
    rows = {first(prng.child_stream(3, m, t)) for m in (1, 2) for t in range(3)}
    others = {first(prng.stream(3, i)) for i in (0, 1, 2, prng.BATCH)}
    assert len(rows) == 6 and not rows & others


def test_heuristic_posterior_uninformative_limit():
    """With huge beta the guidance vanishes and marginals match the prior family."""
    from phaselab.reduction import make_heuristic_sampler

    params = canonical_params(1, 1, beta=50.0)
    f = sign_identity(1)
    rng = np.random.default_rng(9)
    sampler = make_heuristic_sampler(params, f, "exact", steps=800)
    x = sampler(Measurement(params, f, np.zeros(1)), rng, 4000)[0]
    # head marginal: half the mass near each of -R and +R
    frac = np.mean(x[:, 0] > 0)
    assert abs(frac - 0.5) < 0.05
    assert np.mean(np.abs(np.abs(x[:, 0]) - params.R) < 5) > 0.95
