from dataclasses import replace

import numpy as np
import pytest

from phaselab import reduction
from phaselab import rng as prng
from phaselab.cli import SAMPLER_NAMES, SAMPLERS, build_sampler
from phaselab.circuits import all_inputs, sign_identity
from phaselab.diffusion import default_config, reverse_run
from phaselab.instance import bits_eps, canonical_params, measurement_matrix
from phaselab.instance import sample_discretized_gaussian, sample_unconditional
from phaselab.posterior import Measurement, PosteriorConfig, rejection_sample
from phaselab.reduction import (
    inversion_experiment,
    invert,
    make_brute_force_sampler,
    make_heuristic_sampler,
    make_rejection_sampler,
    random_circuit_owf,
    sample_measurement_for_target,
)
from phaselab.scores import provider_by_name

from lemmas import constant_candidate


def test_report_validation():
    params = canonical_params(2, 2)
    f = sign_identity(2)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        inversion_experiment(f, make_brute_force_sampler(params, f), 0, params, master_seed=0)


def test_measurement_for_target_decodes_back():
    """Bits_eps recovers the target with the Gaussian-tail failure rate."""
    params = canonical_params(4, 4)
    streams = [prng.stream(0, i) for i in range(100_000)]
    z = np.array([1, -1, -1, 1])
    y = sample_measurement_for_target(np.tile(z, (len(streams), 1)), params, streams)
    match = np.all(bits_eps(y, params.eps) == z, axis=1)
    # per-coordinate flip probability is 2*Phi(-eps/(2*beta)) ~ 1e-89 at beta = eps/40
    assert match.all()


def _reference_sample_measurement_for_target(z, params, rng):
    """sample_measurement_for_target for one target z as it was before the tail was one
    draw: one sample_discretized_gaussian call per tail coordinate."""
    z = np.asarray(z)
    if z.shape[-1] != params.d_prime:
        raise ValueError("target length mismatch")
    y = np.empty(params.d_prime)
    for j in range(params.d_prime):
        y[j] = sample_discretized_gaussian(int(z[j]), params.eps, rng, size=1)[0]
    return y + params.beta * rng.standard_normal(y.shape)


@pytest.mark.parametrize("d_prime", [0, 1, 8])
@pytest.mark.parametrize("rows", [None, 5])
def test_measurement_for_target_draws_as_per_coordinate_reference(d_prime, rows):
    """One draw for the whole tail gives the per-coordinate draws and generator state for each
    row of a batch, on its own generator; rows None is the one-row batch of a 1-D target."""
    params = canonical_params(8, d_prime, beta=0.3)
    for seed in range(20):
        z = np.random.default_rng(seed).choice(np.array([-1, 1]), size=(rows or 1, d_prime))
        seeds = [seed] if rows is None else [[seed, i] for i in range(rows)]
        rngs, refs = [[np.random.default_rng(sd) for sd in seeds] for _ in range(2)]
        if rows is None:
            y = sample_measurement_for_target(z[0][None], params, rngs[:1])
        else:
            y = sample_measurement_for_target(z, params, rngs)
        want = [_reference_sample_measurement_for_target(zi, params, r) for zi, r in zip(z, refs)]
        assert y.shape == (len(z), d_prime) and np.array_equal(y, want)
        assert all(r.random() == ref.random() for r, ref in zip(rngs, refs))


@pytest.mark.parametrize("d_prime", [0, 1, 8])
def test_batched_measurement_rows_equal_one_generator_draws(d_prime):
    """Row i of a batch drawn with one generator per row equals the one-row batch of z[i] on
    the same stream, and leaves that generator in the same state."""
    params = canonical_params(8, d_prime, beta=0.3)
    z = prng.signs(np.random.default_rng(d_prime), (30, d_prime))
    streams = [prng.stream(5, i) for i in range(30)]
    y = sample_measurement_for_target(z, params, streams)
    assert y.shape == (30, d_prime)
    for i, r in enumerate(streams):
        ref = prng.stream(5, i)
        assert np.array_equal(y[i], sample_measurement_for_target(z[i][None], params, [ref])[0])
        assert r.bit_generator.state == ref.bit_generator.state


def test_batched_measurement_needs_one_generator_per_row():
    params = canonical_params(3, 3)
    z = np.ones((4, 3), dtype=int)
    too_few = [prng.stream(0, i) for i in range(3)]
    for target, streams in ((z, too_few), (z, prng.stream(0, 0)), (z[0], too_few[:1])):
        with pytest.raises(ValueError, match="one generator per row"):
            sample_measurement_for_target(target, params, streams)


def test_inversion_report_as_with_per_coordinate_measurements(monkeypatch):
    """The batched measurements give the report of per-trial, per-coordinate draws."""
    params = canonical_params(8, 8)
    f = random_circuit_owf(8, 8, 24, seed=7)
    sampler = make_brute_force_sampler(params, f)
    got, _ = inversion_experiment(f, sampler, 100, params, master_seed=11)

    def per_trial(z, params, streams):  # one reference call per trial, each on its stream
        rows = zip(z, streams)
        return np.array([_reference_sample_measurement_for_target(zi, params, r) for zi, r in rows])

    monkeypatch.setattr(reduction, "sample_measurement_for_target", per_trial)
    want, _ = inversion_experiment(f, sampler, 100, params, master_seed=11)
    assert got == want


def test_invert_constant_function_always_succeeds():
    params = canonical_params(3, 2)
    f = constant_candidate(3, np.array([1, -1]))
    sampler = make_brute_force_sampler(params, f)
    rng = np.random.default_rng(1)
    z = np.tile(f(np.array([1, 1, -1])), (4, 1))
    y = sample_measurement_for_target(z, params, [prng.stream(1, i) for i in range(4)])
    guesses, no_guess = invert(sampler, Measurement(params, f, y), rng)
    assert guesses.shape == (4, 3) and not no_guess.any()
    assert np.all(f(guesses) == np.array([1, -1]))


def test_inversion_identity_exact_hits_equal_successes():
    """Unique preimages: every success must recover the exact seed."""
    params = canonical_params(4, 4)
    f = sign_identity(4)
    sampler = make_brute_force_sampler(params, f)
    rep, _ = inversion_experiment(f, sampler, 50, params, master_seed=2)
    assert rep["successes"] == rep["exact_seed_hits"] == 50
    assert rep["no_guess_count"] == 0


def test_inversion_deterministic_and_trial_draws_independent_of_trial_count():
    """Repeat runs give one report; trial i's (s, z, y) are the same at 10 and 40 trials."""
    params = canonical_params(6, 6)
    f = random_circuit_owf(6, 6, 18, seed=5)
    sampler = make_brute_force_sampler(params, f)
    a, _ = inversion_experiment(f, sampler, 40, params, master_seed=3)
    b, _ = inversion_experiment(f, sampler, 40, params, master_seed=3)
    assert a == b

    def trial_draws(trials):
        seen = {}

        def f_seen(s):  # the first call evaluates the trials' seeds, the second the guesses
            out = f(s)
            seen.setdefault("sz", (s, out))
            return out

        f_seen.n_inputs, f_seen.n_outputs = f.n_inputs, f.n_outputs  # Measurement checks these

        def sampler_seen(m, rng, size):  # m's f is f_seen, which has no seed table
            seen["y"] = m.y
            return sampler(Measurement(params, f, m.y), rng, size)

        inversion_experiment(f_seen, sampler_seen, trials, params, master_seed=3)
        return (*seen["sz"], seen["y"])

    small, large = trial_draws(10), trial_draws(40)
    for got, want in zip(small, large):
        assert len(got) == 10 and np.array_equal(got, want[:10])
    s, z, y = small
    for i in (0, 9):  # trial i draws s, then y, from stream(master_seed, i)
        r = prng.stream(3, i)
        assert np.array_equal(r.choice(np.array([-1, 1]), size=6), s[i])
        assert np.array_equal(sample_measurement_for_target(z[i][None], params, [r])[0], y[i])


def test_exhausted_rejection_budget_is_a_no_guess_not_a_success():
    """f is constant, so every draw made inverts it; a trial without a draw must not count."""
    params = canonical_params(3, 8)
    f = constant_candidate(3, np.ones(8, dtype=int))
    sampler = make_rejection_sampler(params, f, max_rounds=1)
    rep, _ = inversion_experiment(f, sampler, 10, params, master_seed=4)
    assert rep["no_guess_count"] > 0
    assert rep["successes"] == rep["trials"] - rep["no_guess_count"]


def test_rejection_sampler_batch_row_is_the_lone_call_on_its_spawned_child():
    """Given one Generator g, row i of a batch of k is the lone rejection_sample call on
    g.spawn(k)[i]; A = (0 | I) makes every residual exact, so rows compare bit for bit. A row
    whose lone call runs out of budget is NaN, and info counts the rows' rounds."""
    params = canonical_params(2, 2, beta=0.3)
    f = sign_identity(2)
    k, max_rounds = 6, 20
    z = f(np.array([prng.signs(prng.stream(5, i), 2) for i in range(k)]))
    Y = sample_measurement_for_target(z, params, [prng.stream(5, i) for i in range(k)])
    Y[3] = 40.0  # 40 from every lattice point at beta 0.3: never accepted
    m = Measurement(params, f, Y)
    x, info = make_rejection_sampler(params, f, max_rounds)(m, prng.stream(5, prng.BATCH), k)

    A = measurement_matrix(params)
    cfg = PosteriorConfig(max_rounds, params.beta)
    proposal = lambda n, r: sample_unconditional(params, f, r, size=n)[1]
    children = prng.stream(5, prng.BATCH).spawn(k)
    lone = [rejection_sample(proposal, A, Y[i], cfg, children[i]) for i in range(k)]
    want = [rows[0] if stats.accepted else np.full(params.dim, np.nan) for rows, stats in lone]
    got = sum(stats.accepted for _, stats in lone)
    assert not lone[3][1].accepted and got >= 2
    assert np.array_equal(x, want, equal_nan=True)
    proposals = sum(stats.rounds for _, stats in lone)
    assert info == {"proposals": proposals, "accepted": got, "rounds_per_accept": proposals / got}


@pytest.mark.parametrize("provider", ["exact", "orthant"])
def test_heuristic_sampler_is_the_likelihood_guided_reverse_chain(provider):
    """The sampler is reverse_run, bit for bit, with the Gaussian-likelihood gradient
    -A^T(Ax - y)/(beta^2 + t) as its extra drift: for one y and size draws, and for a (k, d')
    y with one chain per row."""
    params = canonical_params(2, 2, beta=0.3)
    f = sign_identity(2)
    A = measurement_matrix(params)
    steps = 40
    sampler = make_heuristic_sampler(params, f, provider, steps)
    score, dcfg = provider_by_name(provider, params, f), default_config(params, N=steps)
    k = 4
    z = f(np.array([prng.signs(prng.stream(9, i), 2) for i in range(k)]))
    Y = sample_measurement_for_target(z, params, [prng.stream(9, i) for i in range(k)])
    for y, size in ((Y[0], 50), (Y, k)):
        guidance = lambda t, x: -(x @ A.T - y) @ A / (params.beta**2 + t)
        want = reverse_run(
            score, dcfg, prng.stream(9, prng.BATCH), size=size, dim=params.dim, extra_drift=guidance
        )
        x, info = sampler(Measurement(params, f, y), prng.stream(9, prng.BATCH), size)
        assert x.shape == (size, params.dim) and info == {}
        assert np.array_equal(x, want)


def test_build_sampler_refuses_a_name_not_in_the_table():
    """Every name build_sampler knows is a SAMPLERS entry; any other is field 'sampler', not a
    fall-through to the heuristic, which has no correctness contract."""
    params, f = canonical_params(2, 2, beta=0.3), sign_identity(2)
    for name in ("seed-rejection", "Heuristic", ""):
        with pytest.raises(ValueError, match="^field 'sampler': must be one of "):
            build_sampler({"sampler": name, "max_rounds": 10}, params, f)
    assert SAMPLER_NAMES == tuple(SAMPLERS)


@pytest.mark.parametrize("name", SAMPLER_NAMES)
def test_every_sampler_has_the_one_call_form(name):
    """sampler(m, rng, size): a (d',) y gives (size, dim) draws; a (k, d') y with size=k gives
    (k, dim), a row of NaN exactly where info counts a miss. Row 3 lies 5 prior standard
    deviations out in each coordinate: the rejection budget runs out there, and the other samplers
    still draw."""
    params, f = canonical_params(2, 2, beta=0.3), sign_identity(2)
    sampler = build_sampler({"sampler": name, "max_rounds": 10**4, "steps": 40}, params, f)
    k = 5
    z = f(np.array([prng.signs(prng.stream(3, i), 2) for i in range(k)]))
    Y = sample_measurement_for_target(z, params, [prng.stream(3, i) for i in range(k)])
    Y[3] = 5.0
    x, _ = sampler(Measurement(params, f, Y[0]), prng.stream(3, prng.BATCH), 7)
    assert x.shape == (7, params.dim) and np.isfinite(x).all()
    x, info = sampler(Measurement(params, f, Y), prng.stream(3, prng.BATCH), k)
    assert x.shape == (k, params.dim)
    missed = np.isnan(x).any(axis=1)
    assert np.array_equal(missed, np.isnan(x).all(axis=1))
    assert missed.sum() == k - info.get("accepted", k)
    assert missed[3] == (name == "rejection") and not missed[:3].any()


@pytest.mark.parametrize("name", SAMPLER_NAMES)
def test_every_sampler_refuses_a_measurement_of_another_instance(name):
    """A Measurement of another circuit, or of other params, is ValueError before any draw: no
    sampler draws for an instance it was not built for."""
    params, f = canonical_params(2, 2, beta=0.3), sign_identity(2)
    sampler = build_sampler({"sampler": name, "max_rounds": 10**4, "steps": 40}, params, f)
    y = np.array([0.3, 0.1])
    others = (
        Measurement(params, constant_candidate(2, np.array([1, -1])), y),
        Measurement(replace(params, beta=0.5), f, y),
    )
    for m in others:
        rng = prng.stream(3, prng.BATCH)
        with pytest.raises(ValueError, match="another instance"):
            sampler(m, rng, 4)
        assert rng.bit_generator.state == prng.stream(3, prng.BATCH).bit_generator.state
    x, _ = sampler(Measurement(params, f, y), prng.stream(3, prng.BATCH), 4)
    assert x.shape == (4, params.dim)


@pytest.mark.parametrize("name", SAMPLER_NAMES)
def test_every_sampler_refuses_a_size_other_than_the_rows_of_y(name):
    """A (k, d') y takes size=k: sizes 1 and k + 2 are one ValueError before any draw."""
    params, f = canonical_params(2, 2, beta=0.3), sign_identity(2)
    sampler = build_sampler({"sampler": name, "max_rounds": 10**4, "steps": 40}, params, f)
    k = 3
    m = Measurement(params, f, np.tile([0.3, 0.1], (k, 1)))
    for size in (1, k + 2):
        rng = prng.stream(3, prng.BATCH)
        rule = rf"^a \(k, d_prime\) y takes size=k, one draw per row: k = 3, size = {size}$"
        with pytest.raises(ValueError, match=rule):
            sampler(m, rng, size)
        assert rng.bit_generator.state == prng.stream(3, prng.BATCH).bit_generator.state


def test_brute_force_sampler_past_the_enumeration_limit_fails_when_built():
    params = canonical_params(13, 13)
    with pytest.raises(ValueError, match="seed enumeration is limited to d <= 12"):
        make_brute_force_sampler(params, sign_identity(13))


def test_random_circuit_determinism_and_locality():
    f = random_circuit_owf(8, 8, 24, seed=9)
    g = random_circuit_owf(8, 8, 24, seed=9)
    assert f == g
    assert all(len(gate.inputs) <= 3 for gate in f.gates)


def test_random_circuit_outputs_not_constant():
    f = random_circuit_owf(8, 8, 24, seed=10)
    out = f(all_inputs(8))
    n_nonconst = sum(len(np.unique(out[:, j])) == 2 for j in range(8))
    assert n_nonconst >= 4  # at least half the outputs vary


def test_random_circuit_output_support_bounded():
    """Each output depends on at most 8 primary inputs (checked by perturbation)."""
    f = random_circuit_owf(12, 3, 9, seed=11)
    rng = np.random.default_rng(0)
    base = rng.choice(np.array([-1, 1]), size=(200, 12))
    out0 = f(base)
    for j in range(3):
        touched = 0
        for i in range(12):
            flipped = base.copy()
            flipped[:, i] *= -1
            if np.any(f(flipped)[:, j] != out0[:, j]):
                touched += 1
        assert touched <= 8


def test_inversion_success_high_on_random_circuits():
    params = canonical_params(8, 8)
    f = random_circuit_owf(8, 8, 24, seed=13)
    sampler = make_brute_force_sampler(params, f)
    rep, _ = inversion_experiment(f, sampler, 100, params, master_seed=6)
    assert rep["successes"] / rep["trials"] >= 0.9
    assert rep["bits_match_count"] == rep["trials"]  # the clean channel decodes exactly
