import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phaselab.circuits import candidate_to_text, sign_identity
from phaselab import cli, scores
from phaselab.cli import config_hash, main
from phaselab.instance import DEFAULT_EPS, DEFAULT_R, InstanceParams
from phaselab import posterior
from phaselab.posterior import Measurement, seed_law_tv


def run(*argv):
    return main(list(argv))


COLD_START = """
import json, sys
from phaselab import cli, scores
for i, argv in enumerate(json.loads(sys.argv[1])):
    assert cli.main([argv[0], "--out", f"{sys.argv[2]}/{i}", *argv[1:]]) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def test_sampling_runs_load_no_heavy_scipy_module(tmp_path):
    """A fresh process's sampling runs import none of these: scipy.special alone took
    about two thirds of `import phaselab.cli`. The two-point and large-sigma scores load
    scipy.special, and relu scipy.sparse; scipy.stats and scipy.integrate only the tests'
    lemma helpers."""
    small = ["d=3", "d_prime=3"]
    runs = [
        ["invert", "sampler=brute-force", "trials=3", *small],
        ["posterior", "sampler=brute-force", "count=5", *small],
        ["posterior", "sampler=heuristic", "count=5", "steps=20", *small],
        ["sample", "method=diffusion", "provider=exact", "count=5", "steps=5", *small],
        ["bench-acceptance", "betas=0.3", "ms=0,1", "trials=3"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(runs), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert "phaselab.posterior" in loaded
    assert not loaded & {"scipy.special", "scipy.stats", "scipy.integrate", "scipy.sparse"}


def test_verify_green(tmp_path, capsys):
    assert run("sample", "--out", str(tmp_path), "d=2", "d_prime=2", "count=5") == 0
    capsys.readouterr()
    assert run("verify", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "1/1" in out


@pytest.mark.parametrize("kind", ["empty", "missing"])
def test_verify_fails_without_a_run(tmp_path, capsys, kind):
    out = tmp_path / "out"
    if kind == "empty":
        out.mkdir()
    assert run("verify", "--out", str(out)) == 1
    assert f"artifact-hashes  FAIL  AssertionError: no run_manifest.json in {out}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, error",
    [("{", "JSONDecodeError: "), ('{"config_hash": "x", "config": {}}', "KeyError: 'artifacts'")],
    ids=["not-json", "no-artifacts-key"],
)
def test_verify_names_a_bad_manifest(tmp_path, capsys, text, error):
    assert run("sample", "--out", str(tmp_path), "d=2", "d_prime=2", "count=5") == 0
    (tmp_path / "run_manifest.json").write_text(text)
    capsys.readouterr()
    assert run("verify", "--out", str(tmp_path)) == 1
    assert f"artifact-hashes  FAIL  AssertionError: run_manifest.json: {error}" in capsys.readouterr().out


def test_verify_ignores_stale_artifacts_of_another_subcommand(tmp_path, capsys):
    """A run into an --out that holds an earlier run's files checks only its own."""
    assert run("sample", "--out", str(tmp_path), "d=2", "d_prime=2", "count=5") == 0
    argv = ("posterior", "--out", str(tmp_path), "d=2", "d_prime=2", "sampler=brute-force", "count=5")
    assert run(*argv) == 0
    assert (tmp_path / "samples.csv").exists()
    capsys.readouterr()
    assert run("verify", "--out", str(tmp_path)) == 0, capsys.readouterr().out


def test_manifest_lists_every_artifact_with_its_sha256(tmp_path):
    assert run("invert", "--out", str(tmp_path), "d=2", "d_prime=2", "trials=2") == 0
    listed = json.loads((tmp_path / "run_manifest.json").read_text())["artifacts"]
    written = {p.name for p in tmp_path.iterdir()} - {"run_manifest.json"}
    assert set(listed) == written
    assert listed.pop("invert_timing.json") is None  # wall-clock data: no digest
    for name, digest in listed.items():
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


def test_unknown_config_key_rejected(tmp_path):
    with pytest.raises(SystemExit, match="unknown key"):
        run("sample", "--out", str(tmp_path), "bogus=1")


def test_beta_max_is_an_unknown_key(tmp_path):
    """The measurement noise is Gaussian on every CLI path, so there is no clip bound to set."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=r"^config error: unknown key\(s\) beta_max; known: "):
        run("sample", "--out", str(out), "beta_max=0.25")
    assert not out.exists()


def test_bench_acceptance_R_is_an_unknown_key(tmp_path):
    """A = (0 | I) never measures the head that R scales, so no acceptance row depends on R."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=r"^config error: unknown key\(s\) R; known: "):
        run("bench-acceptance", "--out", str(out), "R=30")
    assert not out.exists()


def test_two_main_calls_in_one_process_each_get_their_own_config(tmp_path):
    """The parser is built once and reused: a second call's subcommand, options and
    overrides are its own, and nothing of the first call's carries over."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert run("sample", "--seed", "3", "--out", str(first), "d=2", "d_prime=2", "count=4") == 0
    assert run("invert", "--out", str(second), "d=3", "d_prime=3", "trials=2") == 0
    a = json.loads((first / "run_manifest.json").read_text())
    b = json.loads((second / "run_manifest.json").read_text())
    assert (a["subcommand"], a["seed"], a["config"]["d"], a["config"]["count"]) == (
        "sample", 3, "2", "4"
    )
    assert (b["subcommand"], b["seed"], b["config"]["d"], b["config"]["trials"]) == (
        "invert", 0, "3", "2"
    )
    assert set(a["config"]) == set(cli.SCHEMAS["sample"])
    assert set(b["config"]) == set(cli.SCHEMAS["invert"])
    assert cli._parser() is cli._parser()


def test_bad_value_rejected_with_field_name(tmp_path):
    with pytest.raises(SystemExit, match="'count'"):
        run("sample", "--out", str(tmp_path), "count=notanumber")


# circuit files that the text reader rejects: a gate with no kind, inputs with no count, and
# a negative input count
MALFORMED_CIRCUITS = {
    "kindless": "inputs 2\ng0\noutputs g0\n",
    "countless": "inputs\noutputs\n",
    "negative": "inputs -2\noutputs\n",
}


# Every row names its own id, so deleting a row renames no other; the ids keep the
# `argv<i>-<field>` names that earlier test records use.
@pytest.mark.parametrize(
    "argv, field",
    [
        pytest.param(("sample", "count=-1"), "'count'", id="argv0-'count'"),
        pytest.param(("posterior", "count=0"), "'count'", id="argv1-'count'"),
        pytest.param(("invert", "trials=0"), "'trials'", id="argv2-'trials'"),
        pytest.param(("posterior", "beta=nan"), "'beta'", id="argv3-'beta'"),
        pytest.param(("sample", "R=inf"), "'R'", id="argv4-'R'"),
        # one-field checks done by the schema types
        pytest.param(("sample", "method=bogus"), "'method'", id="argv5-'method'"),
        pytest.param(("posterior", "sampler=bogus"), "'sampler'", id="argv6-'sampler'"),
        pytest.param(("invert", "sampler=bogus"), "'sampler'", id="argv7-'sampler'"),
        pytest.param(("posterior", "max_rounds=0"), "'max_rounds'", id="argv8-'max_rounds'"),
        pytest.param(("invert", "sampler=rejection", "max_rounds=0"),
                     "'max_rounds'", id="argv9-'max_rounds'"),
        pytest.param(("bench-acceptance", "max_rounds=0"),
                     "'max_rounds'", id="argv10-'max_rounds'"),
        pytest.param(("invert", "sampler=brute-force", "max_rounds=0"),
                     "'max_rounds'", id="argv11-'max_rounds'"),
        pytest.param(("approx-score", "mc_draws=0"), "'mc_draws'", id="argv12-'mc_draws'"),
        pytest.param(("bench-acceptance", "trials=0"), "'trials'", id="argv13-'trials'"),
        pytest.param(("posterior", "count=1e3"), "'count'", id="argv14-'count'"),
        pytest.param(("sample", "method=diffusion", "steps=-1"), "'steps'", id="argv15-'steps'"),
        pytest.param(("posterior", "sampler=heuristic", "steps=-1"),
                     "'steps'", id="argv16-'steps'"),
        pytest.param(("sample", "method=diffusion", "steps=1.5"), "'steps'", id="argv17-'steps'"),
        pytest.param(("approx-score", "sigma=0"), "'sigma'", id="argv18-'sigma'"),
        # checks that need more than one field, each reported against its own
        # a y that no seed explains fails before any sampler runs, whichever it is
        pytest.param(("posterior", "d=2", "d_prime=2", "sampler=rejection", "y=1000,1000",
                      "max_rounds=10"), "'y'", id="argv19-'y'"),
        pytest.param(("posterior", "d=2", "d_prime=2", "sampler=heuristic", "y=1000,1000",
                      "count=5", "steps=20"), "'y'", id="argv20-'y'"),
        pytest.param(("posterior", "sampler=brute-force", "d=13", "d_prime=13"),
                     "'d'", id="argv21-'d'"),
        pytest.param(("invert", "sampler=brute-force", "d=13", "d_prime=13"),
                     "'d'", id="argv22-'d'"),
        pytest.param(("invert", "sampler=heuristic", "d=13", "d_prime=13"), "'d'", id="argv23-'d'"),
        pytest.param(("sample", "method=diffusion", "d=13", "d_prime=13"), "'d'", id="argv24-'d'"),
        pytest.param(("approx-score", "kappa=0.5"), "'kappa'", id="argv25-'kappa'"),
        pytest.param(("approx-score", "family=bogus"), "'family'", id="argv26-'family'"),
        pytest.param(("bench-acceptance", "ms=x"), "'ms'", id="argv27-'ms'"),
        pytest.param(("bench-acceptance", "ms=1,-1"), "'ms'", id="argv28-'ms'"),
        pytest.param(("bench-acceptance", "betas=0"), "'betas'", id="argv29-'betas'"),
        pytest.param(("sample", "circuit=random:x:1"), "'circuit'", id="argv30-'circuit'"),
        pytest.param(("sample", "d=3", "d_prime=2"), "'circuit'", id="argv31-'circuit'"),
        pytest.param(("compile-circuit", "circuit=no/such.circuit"),
                     "'circuit'", id="argv32-'circuit'"),
        pytest.param(("posterior", "d=2", "d_prime=2", "y=0.1,0.2,0.3"), "'y'", id="argv33-'y'"),
        pytest.param(("posterior", "d=2", "d_prime=2", "sampler=brute-force", "beta=0"),
                     "'beta'", id="argv34-'beta'"),
        pytest.param(("sample", "method=diffusion", "d=2", "d_prime=2", "provider=bogus"),
                     "'provider'", id="argv35-'provider'"),
        pytest.param(("sample", "d=0"), "'d'", id="argv36-'d'"),
        pytest.param(("sample", "--jobs", "0"), "'jobs'", id="argv37-'jobs'"),
        # the instance's R; bench-acceptance has no R key
        pytest.param(("invert", "R=-1"), "'R'", id="argv38-'R'"),
        pytest.param(("bench-acceptance", "ms=0", "eps=nan"), "'eps'", id="argv39-'eps'"),
        pytest.param(("posterior", "d=2", "d_prime=2", "sampler=brute-force", "y=1000,1000"),
                     "'y'", id="argv40-'y'"),
        pytest.param(("posterior", "d=1", "d_prime=1", "sampler=rejection", "y=-1000"),
                     "'y'", id="argv41-'y'"),
        pytest.param(("posterior", "d=1", "d_prime=1", "sampler=heuristic", "y=1e6"),
                     "'y'", id="argv42-'y'"),
        pytest.param(("posterior", "d=2", "d_prime=2", "y=nan,0"), "'y'", id="argv43-'y'"),
        pytest.param(("posterior", "d=2", "d_prime=2", "y=1,inf"), "'y'", id="argv44-'y'"),
        pytest.param(("sample", "eps=16"), "'eps'", id="argv45-'eps'"),
        pytest.param(("bench-acceptance", "ms=0", "eps=30"), "'eps'", id="argv46-'eps'"),
        pytest.param(("approx-score", "family=dg", "sigma=1e-6", "kappa=0.25"),
                     "'sigma'", id="argv47-'sigma'"),
        pytest.param(("invert", "--seed", "-3"), "'seed'", id="argv48-'seed'"),
        pytest.param(("bench-acceptance", "--seed", "-3", "ms=0"), "'seed'", id="argv49-'seed'"),
        pytest.param(("sample", "d_prime=-1"), "'d_prime'", id="argv50-'d_prime'"),
        pytest.param(("sample", "R=0"), "'R'", id="argv51-'R'"),
        pytest.param(("sample", "method=diffusion", "d=2", "d_prime=2", "provider=relu:x.txt"),
                     "'provider'", id="argv52-'provider'"),
        pytest.param(("sample", "method=diffusion", "d=2", "d_prime=2", "provider=piecewise:x.csv"),
                     "'provider'", id="argv53-'provider'"),
        # the schema checks the name even where the sampler reads no provider
        pytest.param(("posterior", "sampler=brute-force", "provider=bogus"),
                     "'provider'", id="argv54-'provider'"),
        pytest.param(("compile-circuit", "circuit={tmp}/kindless.circuit"),
                     "'circuit'", id="argv55-'circuit'"),
        pytest.param(("invert", "d=2", "d_prime=1", "circuit={tmp}/countless.circuit"),
                     "'circuit'", id="argv56-'circuit'"),
        pytest.param(("compile-circuit", "circuit={tmp}/negative.circuit"),
                     "'circuit'", id="argv57-'circuit'"),
    ],
)
def test_bad_input_rejected_before_any_artifact(tmp_path, argv, field):
    for name, text in MALFORMED_CIRCUITS.items():
        (tmp_path / f"{name}.circuit").write_text(text)
    argv = [a.format(tmp=tmp_path) for a in argv]
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^config error: field {field}: "):
        run(argv[0], "--out", str(out), *argv[1:])
    assert not out.exists()


def test_posterior_y_whose_density_overflows_is_rejected_for_every_sampler(tmp_path):
    """At |y| = 1e200 the tail log densities are -inf under every seed, and the seed weights
    undefined: each sampler stops at field 'y' and writes nothing."""
    out = tmp_path / "out"
    for sampler in ("rejection", "brute-force", "heuristic"):
        with pytest.raises(SystemExit, match="^config error: field 'y': y has zero likelihood"):
            run("posterior", "--out", str(out), "d=1", "d_prime=1", f"sampler={sampler}",
                "y=1e200", "count=5", "max_rounds=10")
        assert not out.exists()


def nan_score(params, f, sigma, x):
    return np.full(np.shape(x), np.nan)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ("posterior", "sampler=heuristic", "count=5", "steps=5"),
        ("sample", "method=diffusion", "count=5", "steps=2"),
    ],
)
def test_diverged_reverse_chain_is_one_error_line_and_no_artifact(tmp_path, argv, monkeypatch):
    """A non-finite exact score on the chain (here forced: the score returns NaN) names the
    provider and the steps in one `config error:` line, exits 1 and writes nothing."""
    monkeypatch.setattr(scores, "mixture_score_exact", nan_score)
    out = tmp_path / "out"
    steps = argv[-1].split("=")[1]
    with pytest.raises(SystemExit) as exc:
        run(argv[0], "--out", str(out), "d=3", "d_prime=3", *argv[1:])
    message = str(exc.value.code)
    assert message.startswith("config error: field 'steps': ") and "\n" not in message
    assert f"steps={steps}" in message and "provider 'exact'" in message
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_diverged_invert_chain_names_the_sampler_and_writes_nothing(tmp_path, monkeypatch):
    """invert's heuristic chain has a fixed length, so its divergence (forced as above) is
    reported against field 'sampler', in one `config error:` line naming the provider, and
    writes nothing."""
    monkeypatch.setattr(scores, "mixture_score_exact", nan_score)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run("invert", "--out", str(out), "sampler=heuristic", "trials=2", "d=2", "d_prime=2",
            "eps=4")
    message = str(exc.value.code)
    assert message.startswith("config error: field 'sampler': ") and "\n" not in message
    assert "provider 'exact'" in message
    assert not out.exists()


@pytest.mark.parametrize("text", ["count = 5\n", "[other]\ncount = 5\n", "{not json"])
def test_bad_config_file_is_a_config_error(tmp_path, text):
    cf = tmp_path / "run.cfg"
    cf.write_text(text)
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="^config error: "):
        run("sample", "--config", str(cf), "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "d=2", "d_prime=2", "count=20", "method=diffusion", "steps=10"),
        ("posterior", "d=2", "d_prime=2", "count=20", "sampler=brute-force"),
        ("invert", "d=3", "d_prime=3", "trials=5"),
        ("approx-score", "family=gaussian", "mc_draws=500"),
        ("compile-circuit", "circuit={circuit}"),
        ("bench-acceptance", "betas=0.3", "ms=0,1", "trials=3"),
        ("posterior", "d=1", "d_prime=1", "beta=0.1", "y=0.3", "count=50", "sampler=heuristic",
         "steps=50"),
        # tail points far from both phase lattices: below e^-700 under every seed, yet the
        # exact score stays finite and the chain finishes
        ("invert", "sampler=heuristic", "trials=2", "d=2", "d_prime=2", "eps=4"),
    ],
)
def test_artifacts_repeat_byte_for_byte_and_verify(tmp_path, capsys, argv):
    """Every artifact-writing subcommand: the same seed gives the same bytes, and verify passes."""
    cf = tmp_path / "f.circuit"
    cf.write_text(candidate_to_text(sign_identity(3)))
    argv = [a.format(circuit=cf) for a in argv]
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(argv[0], "--out", str(out), "--seed", "9", *argv[1:]) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "invert_timing.json"})
    assert runs[0] == runs[1]
    assert "run_manifest.json" in runs[0] and len(runs[0]) > 1
    capsys.readouterr()
    assert run("verify", "--out", str(tmp_path / "a")) == 0, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("invert", "sampler=heuristic", "trials=2"),
        ("posterior", "sampler=heuristic", "count=5", "steps=50"),
    ],
)
def test_heuristic_runs_repeat_in_process_across_another_instance(tmp_path, argv):
    """The exact score's caches (per circuit, per phase and sigma, per atom range) carry no
    state from one run into the next: a run of another instance (another circuit and eps)
    between two same-seed runs leaves their manifests, and so every artifact, equal."""
    small = ("d=4", "d_prime=4")
    same = ("circuit=random:12:5", "eps=1")
    for sub, inst in (("a", same), ("other", ("circuit=random:12:9", "eps=0.5")), ("b", same)):
        out = str(tmp_path / sub)
        assert run(argv[0], "--out", out, "--seed", "7", *argv[1:], *small, *inst) == 0
    manifests = [(tmp_path / sub / "run_manifest.json").read_bytes() for sub in ("a", "other", "b")]
    assert manifests[0] == manifests[2] != manifests[1]


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


def test_posterior_rejection_without_measurements(tmp_path):
    """d_prime = 0: A is the empty (0, d) matrix, which passes the norm check, and every
    proposal is accepted."""
    assert run(
        "posterior", "--out", str(tmp_path), "sampler=rejection", "d=2", "d_prime=0", "count=5",
    ) == 0
    stats = json.loads((tmp_path / "posterior_stats.json").read_text())
    assert stats["y"] == [] and stats["proposals"] == stats["accepted"] == 5


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
    # the artifact, config-hash line and all, holds a piecewise-linear fit of -x/2
    from phaselab.piecewise import PiecewiseLinear

    artifact = (tmp_path / "score_approx.csv").read_text()
    slopes = dict(t.split("=") for t in artifact.splitlines()[1].split()[3:])
    bp, vals = np.loadtxt(artifact.splitlines(), delimiter=",", skiprows=3, unpack=True)
    l = PiecewiseLinear(bp, vals, float(slopes["left_slope"]), float(slopes["right_slope"]))
    x = np.linspace(-2, 2, 51)
    np.testing.assert_allclose(l(x), -x / 2.0, atol=1e-3)


def test_bench_acceptance_rows(tmp_path):
    assert run(
        "bench-acceptance", "--out", str(tmp_path), "--seed", "4",
        "betas=0.3", "ms=0,1", "trials=10",
    ) == 0
    lines = (tmp_path / "acceptance.csv").read_text().splitlines()
    assert lines[1].startswith("beta,m,")
    assert len(lines) == 4


# (d, beta, y) whose seed posterior is far from its mirror image, so negated heads show
SEED_LAW_CASES = [(1, "0.1", "0.3"), (2, "0.3", "0.3,0.1")]
SEED_LAW_TV_BOUND = 0.05  # about 3x the sampling noise of 2000 draws over 4 seeds


@pytest.mark.parametrize("sampler", ["brute-force", "rejection"])
@pytest.mark.parametrize("d, beta, y", SEED_LAW_CASES)
def test_posterior_seed_law_tv_of_exact_samplers_is_within_bound(tmp_path, d, beta, y, sampler):
    """The exact samplers' draws lie within the bound of the exact seed posterior; the same
    draws with their heads negated do not."""
    assert run(
        "posterior", "--out", str(tmp_path), "--seed", "3", f"d={d}", f"d_prime={d}",
        f"beta={beta}", f"y={y}", f"sampler={sampler}", "count=2000",
    ) == 0
    tv = json.loads((tmp_path / "posterior_stats.json").read_text())["seed_law_tv"]
    assert 0.0 <= tv <= SEED_LAW_TV_BOUND
    x = np.loadtxt(tmp_path / "posterior.csv", delimiter=",", skiprows=2)
    params = InstanceParams(d, d, DEFAULT_R, DEFAULT_EPS, float(beta))
    m = Measurement(params, sign_identity(d), np.array([float(v) for v in y.split(",")]))
    assert seed_law_tv(m, x) == tv
    x[:, :d] *= -1
    assert seed_law_tv(m, x) > SEED_LAW_TV_BOUND


def test_posterior_seed_law_tv_is_null_beyond_the_enumeration_limit(tmp_path):
    assert run("posterior", "--out", str(tmp_path), "d=13", "d_prime=0", "count=5") == 0
    stats = json.loads((tmp_path / "posterior_stats.json").read_text())
    assert stats["accepted"] == 5 and stats["seed_law_tv"] is None


# argv -> the seed_posterior_log_weights calls its run makes
TABLE_RUNS = {
    "posterior sampler=brute-force": 1,
    "posterior sampler=rejection d=2 d_prime=2 beta=0.3 count=20": 1,
    "posterior sampler=heuristic steps=20 count=20": 1,
    "posterior d=13 d_prime=0 count=5": 0,
    "invert sampler=brute-force trials=5": 1,
    "invert sampler=rejection d=2 d_prime=2 beta=0.3 trials=5": 0,
    "invert sampler=heuristic d=2 d_prime=2 trials=2": 0,
}


@pytest.mark.parametrize("argv", TABLE_RUNS)
def test_a_run_builds_at_most_one_seed_posterior_table(tmp_path, monkeypatch, argv):
    """The y check, the sampler and seed_law_tv read one Measurement's table: one per posterior
    run at d <= 12, none past it, and one per invert run only where brute force reads it."""
    calls = []
    build = posterior.seed_posterior_log_weights
    monkeypatch.setattr(posterior, "seed_posterior_log_weights",
                        lambda *a: calls.append(1) or build(*a))
    name, *overrides = argv.split()
    assert run(name, "--out", str(tmp_path), *overrides) == 0
    assert len(calls) == TABLE_RUNS[argv]


def test_posterior_with_nothing_accepted_writes_strict_json(tmp_path, capsys):
    """An exhausted budget with no accepted draw gives a null seed_law_tv and a shortfall line."""
    assert run("posterior", "--out", str(tmp_path), "d=2", "d_prime=2", "count=20",
               "max_rounds=1") == 0

    def reject(name):
        raise ValueError(f"{name} is not strict JSON")

    text = (tmp_path / "posterior_stats.json").read_text()
    stats = json.loads(text, parse_constant=reject)
    assert stats["accepted"] == 0 and stats["seed_law_tv"] is None
    assert stats["rounds_per_accept"] is None
    assert len((tmp_path / "posterior.csv").read_text().splitlines()) == 2
    assert "accepted 0 of 20 requested samples" in capsys.readouterr().out


def test_demo2d_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run("demo2d")
    assert exc.value.code == 2 and "invalid choice: 'demo2d'" in capsys.readouterr().err


def test_verify_detects_tampered_artifact(tmp_path):
    run("sample", "--out", str(tmp_path), "count=20", "d=2", "d_prime=2")
    csv = tmp_path / "samples.csv"
    lines = csv.read_text().splitlines()
    lines[0] = "# config-hash: 0000"
    csv.write_text("\n".join(lines) + "\n")
    assert run("verify", "--out", str(tmp_path)) == 1


def _tamper_json_hash(path):
    data = json.loads(path.read_text())
    data["config_hash"] = "0000"
    path.write_text(json.dumps(data))


def _tamper_first_line(path):
    lines = path.read_text().splitlines()
    lines[0] = "# config-hash: 0000"
    path.write_text("\n".join(lines) + "\n")


def _tamper_last_line(path):
    """Append a 0 to the last line: a CSV cell keeps its value, only its bytes change."""
    lines = path.read_text().splitlines()
    lines[-1] += "0"
    path.write_text("\n".join(lines) + "\n")


def _tamper_json_field(path):
    data = json.loads(path.read_text())
    data["sampler"] = "rejection"
    path.write_text(json.dumps(data, indent=2) + "\n")


def _tamper_manifest_config(path):
    data = json.loads(path.read_text())
    data["config"]["count"] = "6"
    path.write_text(json.dumps(data, indent=2) + "\n")


POSTERIOR = ("posterior", "d=2", "d_prime=2", "sampler=brute-force", "count=5")
APPROX = ("approx-score", "family=gaussian", "mc_draws=2000")


@pytest.mark.parametrize(
    "argv, artifact, tamper",
    [
        (POSTERIOR, "posterior_stats.json", _tamper_json_hash),
        (APPROX, "score_net.txt", _tamper_first_line),
        (POSTERIOR, "posterior.csv", _tamper_last_line),
        (POSTERIOR, "posterior_stats.json", _tamper_json_field),
        (APPROX, "score_net.txt", _tamper_last_line),
        (POSTERIOR, "posterior.csv", lambda path: path.unlink()),
        (("invert", "d=2", "d_prime=2", "trials=2"), "invert_timing.json", _tamper_json_hash),
        (POSTERIOR, "run_manifest.json", _tamper_manifest_config),
    ],
    ids=[
        "json-field", "text-first-line", "csv-last-row", "json-other-field", "text-last-line",
        "deleted", "run-dependent-json-field", "manifest-config",
    ],
)
def test_verify_checks_json_and_text_artifact_hashes(tmp_path, capsys, argv, artifact, tamper):
    assert run(argv[0], "--out", str(tmp_path), "--seed", "1", *argv[1:]) == 0
    assert run("verify", "--out", str(tmp_path)) == 0
    tamper(tmp_path / artifact)
    capsys.readouterr()
    assert run("verify", "--out", str(tmp_path)) == 1
    out = capsys.readouterr().out
    assert re.search(rf"artifact-hashes +FAIL +AssertionError: {re.escape(artifact)}: ", out), out


def _reference_write_csv(path, header, rows, h):
    """The CSV writer as it was before rows were formatted whole: one call per cell."""

    def cell(v):
        if isinstance(v, (float, np.floating)):
            return cli.FMT % v
        return str(v)

    lines = [f"# config-hash: {h}", ",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _float_table():
    """2 blocks + 3 rows of floats, with signed zero, inf, nan, tiny and subnormal cells."""
    rows = 2 * cli.CSV_BLOCK_ROWS + 3
    x = np.random.default_rng(0).standard_normal((rows, 5)) * 10.0 ** np.arange(-150, 150, 60)
    x[1, :] = [-0.0, np.inf, -np.inf, np.nan, 1e-300]
    x[-1, :] = [5e-324, np.nextafter(0, 1) * 7, 0.1, 1.0, -2.5]
    return [f"x{j}" for j in range(5)], x


def _mixed_table():
    """List rows mixing Python and NumPy ints, floats and bools with str and None."""
    rows = [
        [1, np.int64(-7), 0.1, np.float64(1 / 3), True, "a b", None],
        [np.int64(2**62), 0, -0.0, np.float64("nan"), False, "", None],
        [3, np.int64(0), float("inf"), np.float64(1e-310), np.bool_(True), "x", np.float32(0.1)],
    ]
    return list("abcdefg"), rows


def _array_table(dtype):
    """Two blocks + 1 row of `dtype` cells, with ints past 2^53 where %.17g would round."""
    rows = 2 * cli.CSV_BLOCK_ROWS + 1
    ints = np.random.default_rng(1).integers(-(2**62), 2**62, size=(rows, 3))
    ints[0] = [2**63 - 1, -(2**63), 0]
    x = {
        "float32": ints.astype(np.float32) * np.float32(1e-20),
        "int64": ints,
        "bool": ints % 3 == 0,
        "complex": ints * 1e-3 + 1j * np.where(ints % 2 == 0, -0.0, np.nan),
    }
    return ["a", "b", "c"], x[dtype]


def _object_table():
    """An object array: each cell keeps its own type, as a list row does."""
    rows = [[1, 0.1, "s", None], [np.int64(-7), np.float64(-0.0), "", np.float32(0.1)]]
    x = np.empty((2, 4), dtype=object)
    x[:] = rows
    return list("abcd"), x


TABLES = {
    "float-array": _float_table,
    "mixed-list": _mixed_table,
    "empty-list": lambda: (["x0", "x1"], []),
    "empty-array": lambda: (["x0", "x1"], np.empty((0, 2))),
    # the writer dispatches on the array's dtype: only a float dtype takes the FMT block format
    "float32-array": lambda: _array_table("float32"),
    "int64-array": lambda: _array_table("int64"),
    "bool-array": lambda: _array_table("bool"),
    "complex-array": lambda: _array_table("complex"),
    "object-array": _object_table,
    "one-column-float-array": lambda: (
        ["x"], np.random.default_rng(2).standard_normal((cli.CSV_BLOCK_ROWS + 1, 1))
    ),
    "one-block-float-array": lambda: (
        ["x", "y"], np.random.default_rng(3).standard_normal((cli.CSV_BLOCK_ROWS, 2))
    ),
}


@pytest.mark.parametrize("table", list(TABLES))
def test_write_csv_matches_per_cell_writer(tmp_path, table):
    header, rows = TABLES[table]()
    cli.write_csv(tmp_path / "new.csv", header, rows, "abc123")
    _reference_write_csv(tmp_path / "old.csv", header, rows, "abc123")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_verify_names_an_empty_artifact(tmp_path, capsys):
    run("sample", "--out", str(tmp_path), "count=20", "d=2", "d_prime=2")
    (tmp_path / "samples.csv").write_text("")
    assert run("verify", "--out", str(tmp_path)) == 1
    out = capsys.readouterr().out
    assert f"samples.csv: sha256 {hashlib.sha256(b'').hexdigest()} is not the manifest's" in out
