import json

import numpy as np
import pytest
from scipy.stats import norm

from phaselab.circuits import candidate_to_text, sign_identity
from phaselab.cli import config_hash, demo_bayes_weight, main


def run(*argv):
    return main(list(argv))


def test_verify_green(tmp_path, capsys):
    assert run("verify", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "7/7" in out


def test_unknown_config_key_rejected(tmp_path):
    with pytest.raises(SystemExit, match="unknown key"):
        run("sample", "--out", str(tmp_path), "bogus=1")


def test_bad_value_rejected_with_field_name(tmp_path):
    with pytest.raises(SystemExit, match="'count'"):
        run("sample", "--out", str(tmp_path), "count=notanumber")


@pytest.mark.parametrize(
    "argv, field",
    [
        (("sample", "count=-1"), "'count'"),
        (("posterior", "count=0"), "'count'"),
        (("invert", "trials=0"), "'trials'"),
        (("posterior", "beta=nan"), "'beta'"),
        (("sample", "R=inf"), "'R'"),
    ],
)
def test_bad_input_rejected_before_any_artifact(tmp_path, argv, field):
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"config error: field {field}"):
        run(argv[0], "--out", str(out), *argv[1:])
    assert not out.exists()


def test_sample_writes_artifacts_with_hash(tmp_path):
    assert run("sample", "--out", str(tmp_path), "--seed", "5", "d=2", "d_prime=2", "count=50") == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["seed"] == 5
    first = (tmp_path / "samples.csv").read_text().splitlines()
    assert first[0] == f"# config-hash: {manifest['config_hash']}"
    assert first[1] == "x0,x1,x2,x3"
    assert len(first) == 52
    assert config_hash(manifest["config"]) == manifest["config_hash"]


def test_ini_and_json_configs_agree(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nd = 2\nd_prime = 2\ncount = 30\n")
    js = tmp_path / "run.json"
    js.write_text(json.dumps({"d": 2, "d_prime": 2, "count": 30}))
    run("sample", "--config", str(ini), "--out", str(tmp_path / "a"), "--seed", "1")
    run("sample", "--config", str(js), "--out", str(tmp_path / "b"), "--seed", "1")
    a = (tmp_path / "a" / "samples.csv").read_text()
    b = (tmp_path / "b" / "samples.csv").read_text()
    assert a == b


def test_invert_deterministic_byte_identical(tmp_path):
    for sub in ("a", "b"):
        run(
            "invert", "--out", str(tmp_path / sub), "--seed", "7",
            "d=6", "d_prime=6", "circuit=random:18:3", "trials=25",
        )
    ja = (tmp_path / "a" / "invert_report.json").read_text()
    jb = (tmp_path / "b" / "invert_report.json").read_text()
    assert ja == jb
    assert json.loads(ja)["success_rate"] >= 0.9


def test_posterior_rejection_stats(tmp_path):
    assert run(
        "posterior", "--out", str(tmp_path), "--seed", "2", "d=2", "d_prime=2", "count=200"
    ) == 0
    stats = json.loads((tmp_path / "posterior_stats.json").read_text())
    assert stats["proposals"] >= 200
    assert len(stats["y"]) == 2


def test_posterior_rejection_stats_count_proposals_used(tmp_path):
    """proposals stops at the last accepted draw, not at the end of the proposal chunk."""
    assert run(
        "posterior", "--out", str(tmp_path), "--seed", "5",
        "d=2", "d_prime=2", "circuit=identity", "beta=0.3", "count=500",
    ) == 0
    stats = json.loads((tmp_path / "posterior_stats.json").read_text())
    assert stats["proposals"] == 11334 and stats["accepted"] == 500
    assert stats["rounds_per_accept"] == 11334 / 500


def test_posterior_rejection_budget_exhaustion_writes_accepted_rows(tmp_path, capsys):
    assert run(
        "posterior", "--out", str(tmp_path), "--seed", "5",
        "d=2", "d_prime=2", "beta=0.3", "count=50", "max_rounds=10",
    ) == 0
    stats = json.loads((tmp_path / "posterior_stats.json").read_text())
    assert stats["proposals"] == 500 and 0 < stats["accepted"] < 50
    rows = (tmp_path / "posterior.csv").read_text().splitlines()[2:]
    assert len(rows) == stats["accepted"]
    assert f"accepted {stats['accepted']} of 50" in capsys.readouterr().out


def test_compile_circuit_subcommand(tmp_path):
    cf = tmp_path / "f.circuit"
    cf.write_text(candidate_to_text(sign_identity(4)))
    assert run("compile-circuit", "--out", str(tmp_path), f"circuit={cf}") == 0
    rep = json.loads((tmp_path / "param_report.json").read_text())
    assert rep["param_count"] > 0 and rep["depth"] >= 3
    assert (tmp_path / "circuit_net.txt").exists()


def test_approx_score_emits_loadable_artifacts(tmp_path):
    assert run(
        "approx-score", "--out", str(tmp_path), "--seed", "3",
        "family=gaussian", "sigma=1.0", "kappa=0.04", "mc_draws=2000",
    ) == 0
    table = (tmp_path / "error_table.csv").read_text().splitlines()
    header = table[1].split(",")
    row = dict(zip(header, table[2].split(",")))
    assert float(row["l2_error"]) < 1e-5
    # artifacts round-trip through the file-backed providers
    from phaselab.scores import provider_by_name

    body = (tmp_path / "score_approx.csv").read_text().split("\n", 1)[1]
    (tmp_path / "clean.csv").write_text(body)
    pw = provider_by_name(f"piecewise:{tmp_path / 'clean.csv'}")
    x = np.linspace(-2, 2, 51)
    np.testing.assert_allclose(pw(1.0, x), -x / 2.0, atol=1e-3)


def test_bench_acceptance_rows(tmp_path):
    assert run(
        "bench-acceptance", "--out", str(tmp_path), "--seed", "4",
        "betas=0.3", "ms=0,1", "trials=10",
    ) == 0
    lines = (tmp_path / "acceptance.csv").read_text().splitlines()
    assert lines[1].startswith("beta,m,")
    assert len(lines) == 4


def test_demo2d_weights_match_bayes(tmp_path):
    assert run("demo2d", "--out", str(tmp_path), "--seed", "6", "count=1500", "steps=400") == 0
    w = json.loads((tmp_path / "component_weights.json").read_text())
    var = 0.4 + 0.81
    want = norm.pdf(4.0, 4.0, np.sqrt(var)) / (
        norm.pdf(4.0, 4.0, np.sqrt(var)) + norm.pdf(4.0, 0.0, np.sqrt(var))
    )
    assert abs(demo_bayes_weight(4.0) - want) < 1e-12
    assert abs(w["oracle_weight_upper"] - want) < 0.02
    assert abs(w["rejection_weight_upper"] - want) < 0.02
    # the heuristic discrepancy is reported, not thresholded
    assert 0.0 <= w["heuristic_weight_upper"] <= 1.0
    for name in ("prior", "posterior_rejection", "posterior_oracle", "posterior_heuristic"):
        assert (tmp_path / f"{name}.csv").exists()


def test_verify_detects_tampered_artifact(tmp_path):
    run("sample", "--out", str(tmp_path), "count=20", "d=2", "d_prime=2")
    csv = tmp_path / "samples.csv"
    lines = csv.read_text().splitlines()
    lines[0] = "# config-hash: 0000"
    csv.write_text("\n".join(lines) + "\n")
    assert run("verify", "--out", str(tmp_path)) == 1
