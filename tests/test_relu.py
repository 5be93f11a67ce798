import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phaselab.circuits import BooleanCircuit, Gate, all_inputs, sign_identity
from phaselab.instance import InstanceParams, sample_unconditional
from phaselab.piecewise import PiecewiseLinear
from phaselab.reduction import random_circuit_owf
from phaselab.relu import (
    ReluNetwork,
    assemble_score_net_large_sigma,
    assemble_score_net_small_sigma,
    chain,
    circuit_to_relu,
    compile_piecewise,
    compose_coordinatewise,
    eval_net,
    identity_net,
    network_from_text,
    network_to_text,
    report,
    switch_net,
    vertex_identifier,
)
from phaselab.scores import mixture_score_exact


def naive_forward(net: ReluNetwork, x: np.ndarray) -> np.ndarray:
    """Dense layer-by-layer interpreter used as an oracle for eval_net."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    for layer in net.layers:
        h = h @ layer.w.toarray().T + layer.b
        mask = np.asarray(layer.relu)
        h[:, mask] = np.maximum(h[:, mask], 0.0)
    return h


def random_pl(rng, n_bp=7, span=4.0):
    bp = np.sort(rng.uniform(-span, span, size=n_bp))
    bp = bp[np.concatenate(([True], np.diff(bp) > 1e-3))]
    return PiecewiseLinear(bp, rng.uniform(-3, 3, size=bp.size), rng.uniform(-2, 2), rng.uniform(-2, 2))


def test_eval_net_matches_naive_interpreter():
    rng = np.random.default_rng(0)
    for _ in range(10):
        net = compile_piecewise(random_pl(rng))
        x = rng.uniform(-6, 6, size=(64, 1))
        assert_allclose(eval_net(net, x), naive_forward(net, x), atol=1e-12)


def test_compile_absolute_value():
    l = PiecewiseLinear(np.array([0.0]), np.array([0.0]), -1.0, 1.0)
    net = compile_piecewise(l)
    assert_allclose(eval_net(net, np.array([[3.0], [-2.0], [0.0]]))[:, 0], [3.0, 2.0, 0.0])


def test_compile_piecewise_exact_on_dense_grid():
    rng = np.random.default_rng(1)
    x = np.linspace(-8, 8, 10_001)[:, None]
    for _ in range(10):
        l = random_pl(rng)
        got = eval_net(compile_piecewise(l), x)[:, 0]
        want = l(x[:, 0])
        assert np.max(np.abs(got - want)) <= 1e-9


def test_compile_piecewise_weight_bound():
    rng = np.random.default_rng(2)
    for _ in range(10):
        l = random_pl(rng)
        slopes = l.slopes()
        bound = max(
            1.0,
            np.abs(slopes).max(),
            np.abs(np.diff(slopes)).max(),
            np.abs(l.breakpoints).max(),
            abs(l.values[0] - slopes[0] * l.breakpoints[0]),
        )
        assert report(compile_piecewise(l)).max_abs_weight <= bound + 1e-12


def test_identity_and_chain():
    net = chain(identity_net(3), identity_net(3, depth=2))
    x = np.random.default_rng(3).standard_normal((5, 3))
    assert_allclose(eval_net(net, x), x)
    assert net.depth == 3


def test_compose_coordinatewise_blocks():
    rng = np.random.default_rng(4)
    la, lb = random_pl(rng), random_pl(rng)
    net = compose_coordinatewise([compile_piecewise(la), identity_net(2), compile_piecewise(lb)])
    x = rng.uniform(-5, 5, size=(40, 4))
    out = eval_net(net, x)
    assert_allclose(out[:, 0], la(x[:, 0]), atol=1e-12)
    assert_allclose(out[:, 1:3], x[:, 1:3], atol=1e-12)
    assert_allclose(out[:, 3], lb(x[:, 3]), atol=1e-12)


def test_vertex_identifier_clamps():
    net = vertex_identifier(2, 0.5)
    x = np.array([[2.0, -0.25], [-0.1, 0.7], [0.5, -0.5]])
    want = np.clip(x / 0.5, -1.0, 1.0)
    assert_allclose(eval_net(net, x), want, atol=1e-12)
    assert report(net).max_abs_weight <= 2.0 / 0.5 + 1.0


def test_switch_net_gates_by_sign():
    T = 5.0
    net = switch_net(3, T)
    rng = np.random.default_rng(5)
    x = rng.uniform(-T, T, size=(20, 3))
    on = eval_net(net, np.hstack([x, np.ones((20, 1))]))
    off = eval_net(net, np.hstack([x, -np.ones((20, 1))]))
    assert_allclose(on, x, atol=1e-12)
    assert_allclose(off, 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_circuit_to_relu_exhaustive(seed):
    """Network output equals circuit evaluation on every +-1 input."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 6))
    f = random_circuit_owf(n, m, int(rng.integers(m, 4 * m + 1)), seed=seed)
    S = all_inputs(n)
    assert np.array_equal(eval_net(circuit_to_relu(f), S.astype(float)), f(S))


def test_circuit_to_relu_weight_bound():
    f = random_circuit_owf(8, 8, 24, seed=11)
    rep = report(circuit_to_relu(f))
    assert rep.max_abs_weight <= 2.0  # translations and gate sums only


def test_network_text_round_trip():
    rng = np.random.default_rng(6)
    net = compose_coordinatewise([compile_piecewise(random_pl(rng)) for _ in range(3)])
    back = network_from_text(network_to_text(net))
    x = rng.uniform(-5, 5, size=(30, 3))
    assert_allclose(eval_net(back, x), eval_net(net, x), rtol=0, atol=0)
    assert back.depth == net.depth


# An OR and an AND with repeated references, a NOT, and an input passed to the outputs.
HAND_CIRCUIT = BooleanCircuit(
    3,
    (Gate("OR", (0, 0, 1)), Gate("AND", (2, 2)), Gate("NOT", (3,)), Gate("OR", (4, 5, 1))),
    (3, 6, 0),
)


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: vertex_identifier(3, 0.25), "edcde65cd86003ed"),
        (lambda: switch_net(3, 2.5), "2570cf4d9a9a250e"),
        (lambda: circuit_to_relu(HAND_CIRCUIT), "c95cf88a1cf0d802"),
    ],
)
def test_exact_builders_network_text_is_pinned(build, digest):
    """The sparse layouts (entries, nnz, no stored zeros) of the exactly-valued builders."""
    text = network_to_text(build())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_network_text_rejects_garbage():
    with pytest.raises(ValueError):
        network_from_text("not a network\n")


@pytest.mark.parametrize("sigma", [0.1, 1.0])
def test_small_sigma_assembly_tracks_exact_score(sigma):
    params = InstanceParams(2, 2, 30.0, 0.05, 0.00125)
    f = sign_identity(2)
    net = assemble_score_net_small_sigma(params, f, sigma, kappa=0.25)
    rng = np.random.default_rng(7)
    _, x = sample_unconditional(params, f, rng, size=2000)
    x += sigma * rng.standard_normal(x.shape)
    got = eval_net(net, x)
    want = mixture_score_exact(params, f, sigma, x)
    mse = float(np.mean((got - want) ** 2))
    assert mse <= 1e-3 / sigma**2


def test_large_sigma_assembly_tracks_exact_score():
    params = InstanceParams(2, 2, 30.0, 0.05, 0.00125)
    f = sign_identity(2)
    sigma = 20.0
    net = assemble_score_net_large_sigma(params, sigma, kappa=0.01)
    rng = np.random.default_rng(8)
    _, x = sample_unconditional(params, f, rng, size=2000)
    x += sigma * rng.standard_normal(x.shape)
    got = eval_net(net, x)
    want = mixture_score_exact(params, f, sigma, x)
    assert float(np.mean((got - want) ** 2)) <= 1e-3 / sigma**2


def test_param_report_counts():
    l = PiecewiseLinear(np.array([0.0]), np.array([0.0]), -1.0, 1.0)  # |x|
    rep = report(compile_piecewise(l))
    # hidden: ReLU(x), ReLU(-x) plus one transition unit; output row; biases
    assert rep.param_count == 3 + 3 + 3 + 1
    assert rep.depth == 2
