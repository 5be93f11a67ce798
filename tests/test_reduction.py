from dataclasses import replace

import numpy as np
import pytest

from phaselab import reduction
from phaselab import rng as prng
from phaselab.circuits import all_inputs, constant_candidate, sign_identity
from phaselab.instance import bits_eps, canonical_params, sample_discretized_gaussian
from phaselab.reduction import (
    InversionReport,
    inversion_experiment,
    invert,
    make_brute_force_sampler,
    make_rejection_sampler,
    random_circuit_owf,
    sample_measurement_for_target,
)


def test_report_validation():
    with pytest.raises(ValueError):
        InversionReport(0, 0, 0, 0, 0, 0.0)
    with pytest.raises(ValueError):
        InversionReport(10, 5, 7, 0, 0, 0.0)  # exact hits cannot exceed successes


def test_measurement_for_target_decodes_back():
    """Bits_eps recovers the target with the Gaussian-tail failure rate."""
    params = canonical_params(4, 4)
    rng = np.random.default_rng(0)
    z = np.array([1, -1, -1, 1])
    y = sample_measurement_for_target(z, params, rng, size=100_000)
    match = np.all(bits_eps(y, params.eps) == z, axis=1)
    # per-coordinate flip probability is 2*Phi(-eps/(2*beta)) ~ 1e-89 at beta = eps/40
    assert match.all()


def _reference_sample_measurement_for_target(z, params, rng, size=None):
    """sample_measurement_for_target as it was before the tail was one draw:
    one sample_discretized_gaussian call per tail coordinate."""
    z = np.asarray(z)
    if z.shape[-1] != params.d_prime:
        raise ValueError("target length mismatch")
    n = 1 if size is None else size
    y = np.empty((n, params.d_prime))
    for j in range(params.d_prime):
        y[:, j] = sample_discretized_gaussian(int(z[j]), params.eps, rng, size=n)
    y += params.beta * rng.standard_normal(y.shape)
    return y[0] if size is None else y


@pytest.mark.parametrize("d_prime", [0, 1, 8])
@pytest.mark.parametrize("size", [None, 5])
def test_measurement_for_target_draws_as_per_coordinate_reference(d_prime, size):
    """One draw for the whole tail gives the per-coordinate draws and generator state."""
    params = canonical_params(8, d_prime, beta=0.3)
    for seed in range(20):
        z = np.random.default_rng(seed).choice(np.array([-1, 1]), size=d_prime)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        y = sample_measurement_for_target(z, params, rng, size=size)
        want = _reference_sample_measurement_for_target(z, params, ref, size=size)
        assert y.shape == want.shape and np.array_equal(y, want)
        assert rng.random() == ref.random()


@pytest.mark.parametrize("d_prime", [0, 1, 8])
def test_batched_measurement_rows_equal_one_generator_draws(d_prime):
    """Row i of a batch drawn with one generator per row equals the one-generator draw for
    z[i] from the same stream, and leaves that generator in the same state."""
    params = canonical_params(8, d_prime, beta=0.3)
    z = prng.signs(np.random.default_rng(d_prime), (30, d_prime))
    streams = [prng.stream(5, i) for i in range(30)]
    y = sample_measurement_for_target(z, params, streams)
    assert y.shape == (30, d_prime)
    for i, r in enumerate(streams):
        ref = prng.stream(5, i)
        assert np.array_equal(y[i], sample_measurement_for_target(z[i], params, ref))
        assert r.bit_generator.state == ref.bit_generator.state


def test_batched_measurement_needs_one_generator_per_row():
    params = canonical_params(3, 3)
    z = np.ones((4, 3), dtype=int)
    too_few, enough = [prng.stream(0, i) for i in range(3)], [prng.stream(0, i) for i in range(4)]
    for streams, size in ((too_few, None), (enough, 2)):
        with pytest.raises(ValueError, match="one generator per row"):
            sample_measurement_for_target(z, params, streams, size=size)


def test_inversion_report_as_with_per_coordinate_measurements(monkeypatch):
    """The batched measurements give the report of per-trial, per-coordinate draws."""
    params = canonical_params(8, 8)
    f = random_circuit_owf(8, 8, 24, seed=7)
    sampler = make_brute_force_sampler(params, f)
    got = inversion_experiment(f, sampler, 100, params, master_seed=11)

    def per_trial(z, params, streams):  # one reference call per trial, each on its stream
        rows = zip(z, streams)
        return np.array([_reference_sample_measurement_for_target(zi, params, r) for zi, r in rows])

    monkeypatch.setattr(reduction, "sample_measurement_for_target", per_trial)
    want = inversion_experiment(f, sampler, 100, params, master_seed=11)
    assert replace(got, mean_sampler_nanos=0.0) == replace(want, mean_sampler_nanos=0.0)


def test_invert_constant_function_always_succeeds():
    params = canonical_params(3, 2)
    f = constant_candidate(3, np.array([1, -1]))
    sampler = make_brute_force_sampler(params, f)
    rng = np.random.default_rng(1)
    y = sample_measurement_for_target(f(np.array([1, 1, -1])), params, rng, size=4)
    guesses, no_guess = invert(sampler, y, params, rng)
    assert guesses.shape == (4, 3) and not no_guess.any()
    assert np.all(f(guesses) == np.array([1, -1]))


def test_inversion_identity_exact_hits_equal_successes():
    """Unique preimages: every success must recover the exact seed."""
    params = canonical_params(4, 4)
    f = sign_identity(4)
    sampler = make_brute_force_sampler(params, f)
    rep = inversion_experiment(f, sampler, 50, params, master_seed=2)
    assert rep.successes == rep.exact_seed_hits == 50
    assert rep.no_guess_count == 0


def test_inversion_deterministic_and_trial_draws_independent_of_trial_count():
    """Repeat runs give one report; trial i's (s, z, y) are the same at 10 and 40 trials."""
    params = canonical_params(6, 6)
    f = random_circuit_owf(6, 6, 18, seed=5)
    sampler = make_brute_force_sampler(params, f)
    a = inversion_experiment(f, sampler, 40, params, master_seed=3)
    b = inversion_experiment(f, sampler, 40, params, master_seed=3)
    assert replace(a, mean_sampler_nanos=0.0) == replace(b, mean_sampler_nanos=0.0)

    def trial_draws(trials):
        seen = {}

        def f_seen(s):  # the first call evaluates the trials' seeds, the second the guesses
            out = f(s)
            seen.setdefault("sz", (s, out))
            return out

        def sampler_seen(y, rng):
            seen["y"] = y
            return sampler(y, rng)

        inversion_experiment(f_seen, sampler_seen, trials, params, master_seed=3)
        return (*seen["sz"], seen["y"])

    small, large = trial_draws(10), trial_draws(40)
    for got, want in zip(small, large):
        assert len(got) == 10 and np.array_equal(got, want[:10])
    s, z, y = small
    for i in (0, 9):  # trial i draws s, then y, from stream(master_seed, i)
        r = prng.stream(3, i)
        assert np.array_equal(r.choice(np.array([-1, 1]), size=6), s[i])
        assert np.array_equal(sample_measurement_for_target(z[i], params, r), y[i])


def test_exhausted_rejection_budget_is_a_no_guess_not_a_success():
    """f is constant, so every draw made inverts it; a trial without a draw must not count."""
    params = canonical_params(3, 8)
    f = constant_candidate(3, np.ones(8, dtype=int))
    sampler = make_rejection_sampler(params, f, max_rounds=1)
    rep = inversion_experiment(f, sampler, 10, params, master_seed=4)
    assert rep.no_guess_count > 0
    assert rep.successes == rep.trials - rep.no_guess_count


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
    rep = inversion_experiment(f, sampler, 100, params, master_seed=6)
    assert rep.successes / rep.trials >= 0.9
    assert rep.bits_match_count == rep.trials  # the clean channel decodes exactly
