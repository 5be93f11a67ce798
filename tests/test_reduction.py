from dataclasses import replace

import numpy as np
import pytest

from phaselab import rng as prng
from phaselab.circuits import all_inputs, constant_candidate, sign_identity
from phaselab.instance import bits_eps, canonical_params
from phaselab.reduction import (
    InversionReport,
    brute_force_preimages,
    inversion_experiment,
    invert,
    make_brute_force_sampler,
    make_rejection_sampler,
    random_circuit_owf,
    sample_measurement_for_target,
    stretch_owf,
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


def test_stretch_pad_appends_constant_plus_one():
    f = random_circuit_owf(6, 4, 12, seed=1)
    g = stretch_owf(f, 6)
    S = all_inputs(6)
    out = g(S)
    assert np.array_equal(out[:, :4], f(S))
    assert np.all(out[:, 4:] == 1)


def test_stretch_identity_when_length_matches():
    f = random_circuit_owf(5, 3, 9, seed=2)
    assert stretch_owf(f, 3) is f


def test_stretch_truncation_matches_restricted_oracle():
    """Truncation equals evaluating f with the unused inputs pinned to +1."""
    f = random_circuit_owf(8, 8, 24, seed=4)
    l = 2
    g = stretch_owf(f, l)
    n_keep = max(1, round(8 * l / 8))
    S = all_inputs(8)
    pinned = S.copy()
    pinned[:, n_keep:] = 1
    assert np.array_equal(g(S), f(pinned)[:, :l])


def test_random_circuit_determinism_and_locality():
    f = random_circuit_owf(8, 8, 24, seed=9)
    g = random_circuit_owf(8, 8, 24, seed=9)
    assert f.circuit == g.circuit
    assert all(len(gate.inputs) <= 3 for gate in f.circuit.gates)


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


def test_brute_force_preimages_consistent():
    f = random_circuit_owf(8, 8, 24, seed=12)
    rng = np.random.default_rng(3)
    s = rng.choice(np.array([-1, 1]), size=8)
    pre = brute_force_preimages(f, f(s))
    assert any(np.array_equal(p, s) for p in pre)
    assert np.all(f(pre) == f(s))


def test_inversion_success_high_on_random_circuits():
    params = canonical_params(8, 8)
    f = random_circuit_owf(8, 8, 24, seed=13)
    sampler = make_brute_force_sampler(params, f)
    rep = inversion_experiment(f, sampler, 100, params, master_seed=6)
    assert rep.successes / rep.trials >= 0.9
    assert rep.bits_match_count == rep.trials  # the clean channel decodes exactly
