import json
import sys

import numpy as np

import run
import spans
from phaselab import circuits, cli, posterior, reduction


def test_self_time_subtracts_nested_children():
    # root [0, 100] holds a [10, 40] (which holds g [15, 25]) and b [50, 90]
    s = [["root", 0, 100, -1], ["a", 10, 40, 0], ["g", 15, 25, 1], ["b", 50, 90, 0]]
    assert spans.self_times(s) == [30, 20, 10, 40]


def test_self_time_counts_overlapping_children_once():
    s = [["root", 0, 100, -1], ["a", 10, 60, 0], ["b", 40, 80, 0], ["c", 90, 120, 0]]
    assert spans.self_times(s)[0] == 100 - 70 - 10


def test_tracer_records_parents_and_durations():
    t = spans.Tracer()
    outer = t.begin("outer")
    inner = t.begin("inner")
    t.finish(inner)
    t.finish(outer)
    (n0, s0, e0, p0), (n1, s1, e1, p1) = t.spans
    assert (n0, p0, n1, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0


def test_install_reaches_every_binding_and_uninstall_restores():
    originals = {(m, a): getattr(sys.modules[f"phaselab.{m}"], a) for m, a in spans.KNOWN_BINDINGS}
    command = cli.COMMANDS["invert"]
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        for m, a in spans.KNOWN_BINDINGS:
            assert getattr(sys.modules[f"phaselab.{m}"], a) is not originals[(m, a)]
        assert cli.COMMANDS["invert"] is not command
        f = reduction.random_circuit_owf(8, 8, 24, seed=1)
        f(circuits.all_inputs(8))
    finally:
        spans.uninstall(undo)
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[f"phaselab.{m}"], a) is fn
    assert cli.COMMANDS["invert"] is command
    totals = spans.layer_totals(tracer)
    assert totals["calls"]["circuits.all_inputs"] == 1
    assert totals["calls"]["circuits.eval_circuit"] == 1
    assert totals["counts"][("circuits.eval_circuit", "rows")] == 256


def test_rejection_counters_match_the_sampler_stats():
    from phaselab import instance
    from phaselab.instance import canonical_params, measurement_matrix
    from phaselab.rng import stream

    params = canonical_params(2, 2, beta=0.3)
    f = circuits.sign_identity(2)
    cfg = posterior.PosteriorConfig(10**6, 0.3)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        _, stats = posterior.rejection_sample(
            lambda n, r: instance.sample_unconditional(params, f, r, size=n)[1],
            measurement_matrix(params), np.zeros(2), cfg, stream(0), chunk=64,
        )
    finally:
        spans.uninstall(undo)
    c = tracer.counts
    assert c[("posterior.rejection", "rounds")] == stats.rounds
    assert c[("posterior.rejection", "proposals")] == 64 * -(-stats.rounds // 64)
    assert c[("posterior.rejection", "proposals")] == c[("instance.sample_unconditional", "rows")]


def test_layer_table_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in spans.LAYER_METRICS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for row in spans.LAYER_METRICS:
        assert set(row[3]) <= set(run.WORKLOADS)
