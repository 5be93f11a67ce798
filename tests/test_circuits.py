import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab.circuits import (
    BooleanCircuit,
    Gate,
    all_inputs,
    candidate_from_text,
    candidate_to_text,
    eval_circuit,
    no_output_candidate,
    sign_identity,
)

from lemmas import constant_candidate

# convention reminder: -1 encodes True, +1 encodes False


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("XOR", (0, 1))
    with pytest.raises(ValueError):
        Gate("NOT", (0, 1))


def test_circuit_reference_validation():
    with pytest.raises(ValueError):
        BooleanCircuit(2, (Gate("AND", (0, 5)),), (2,))
    with pytest.raises(ValueError):
        BooleanCircuit(2, (), (3,))


def test_truth_tables():
    c = BooleanCircuit(2, (Gate("AND", (0, 1)), Gate("OR", (0, 1)), Gate("NOT", (0,))), (2, 3, 4))
    S = all_inputs(2)
    out = eval_circuit(c, S)
    for row, (a, b) in zip(out, S):
        ta, tb = a == -1, b == -1
        assert (row[0] == -1) == (ta and tb)
        assert (row[1] == -1) == (ta or tb)
        assert (row[2] == -1) == (not ta)


def test_all_inputs_enumeration():
    S = all_inputs(3)
    assert S.shape == (8, 3)
    assert len({tuple(r) for r in S}) == 8
    assert set(np.unique(S)) == {-1, 1}


def test_sign_identity():
    f = sign_identity(5)
    S = all_inputs(5)
    assert np.array_equal(f(S), S)


def test_constant_candidate():
    bits = np.array([1, -1, 1])
    f = constant_candidate(4, bits)
    out = f(all_inputs(4))
    assert np.array_equal(out, np.tile(bits, (16, 1)))


def test_no_output_candidate():
    f = no_output_candidate(3)
    assert f(all_inputs(3)).shape == (8, 0)


def test_candidate_text_round_trip():
    gates = (Gate("NOT", (1,)), Gate("AND", (0, 3)), Gate("OR", (2, 4)))
    f = BooleanCircuit(3, gates, (4, 5), "demo")
    g = candidate_from_text(candidate_to_text(f))
    assert g == f
    S = all_inputs(3)
    assert np.array_equal(f(S), g(S))


def test_candidate_callable_batches():
    f = sign_identity(2)
    one = f(np.array([1, -1]))
    assert one.shape == (2,)
    batch = f(np.array([[1, -1], [-1, -1]]))
    assert batch.shape == (2, 2)


@st.composite
def random_circuits(draw):
    n = draw(st.integers(1, 5))
    n_gates = draw(st.integers(1, 12))
    gates = []
    for k in range(n_gates):
        kind = draw(st.sampled_from(["AND", "OR", "NOT"]))
        fan = 1 if kind == "NOT" else draw(st.integers(1, 4))  # fan-in 1: the input's own view
        refs = tuple(draw(st.integers(0, n + k - 1)) for _ in range(fan))
        gates.append(Gate(kind, refs))
    n_out = draw(st.integers(0, 4))
    outs = tuple(draw(st.integers(0, n + n_gates - 1)) for _ in range(n_out))
    return BooleanCircuit(n, tuple(gates), outs)


def _eval_reference(c, x):
    """Straight-line scalar interpreter used as an oracle for eval_circuit."""
    vals = [bool(v == -1) for v in x]
    for g in c.gates:
        ins = [vals[r] for r in g.inputs]
        vals.append(
            all(ins) if g.kind == "AND" else any(ins) if g.kind == "OR" else not ins[0]
        )
    return np.array([-1 if vals[r] else 1 for r in c.outputs])


@given(random_circuits())
@settings(max_examples=60, deadline=None)
def test_eval_circuit_matches_scalar_interpreter(c):
    S = all_inputs(c.n_inputs)
    out = eval_circuit(c, S)
    for row, x in zip(out, S):
        assert np.array_equal(row, _eval_reference(c, x))


@given(random_circuits(), st.sampled_from([(), (5,), (3, 4)]), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_eval_circuit_batches_equal_row_by_row(c, lead, seed):
    """1-D, 2-D and (k, m, n) inputs give the row-by-row result as int64; the inputs are
    left as they were, even where a fan-in-1 gate or an output is an input's own view."""
    x = np.random.default_rng(seed).choice(np.array([-1, 1]), size=lead + (c.n_inputs,))
    before = x.copy()
    out = eval_circuit(c, x)
    assert out.shape == lead + (c.n_outputs,) and out.dtype == np.int64
    rows = x.reshape(-1, c.n_inputs)
    want = [_eval_reference(c, r) for r in rows]
    assert np.array_equal(out.reshape(len(rows), c.n_outputs), np.reshape(want, (len(rows), -1)))
    assert np.array_equal(x, before)


@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 12), st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_seed_table_is_cached_read_only_enumeration(n, m, extra, seed):
    from phaselab.reduction import random_circuit_owf

    f = random_circuit_owf(n, m, m + extra, seed)
    S, F = f.seed_table
    assert np.array_equal(S, all_inputs(n))
    assert np.array_equal(F, f(all_inputs(n)))
    assert not S.flags.writeable and not F.flags.writeable
    assert f.seed_table is f.seed_table


@given(random_circuits())
@settings(max_examples=30, deadline=None)
def test_text_round_trip_random(c):
    assert candidate_from_text(candidate_to_text(c)) == c
