import json
import os

import numpy as np
import pytest

from epcag_lab import cli
from epcag_lab.cli import run
from epcag_lab.errors import BlowUpError, ConditionError, EpcagError, IntegrationFailureError
from epcag_lab.reporting import emit_report, load_schema

CONFIG = """
[system]
n = 1
A11 = -1
f1 = 0.5 + 0.1*w1

[grid]
kind = uniform
step = 1.0
offset = 0.0
window = -30 30

[constants]
mu = 1.0
lip = 0.1
h0 = 0.5
"""


def _not_json(constant):
    raise ValueError(f"report holds {constant}, which is not JSON")


def _validate(path):
    jsonschema = pytest.importorskip("jsonschema")
    payload = json.loads(path.read_text(), parse_constant=_not_json)
    jsonschema.validate(payload, load_schema())
    return payload


def test_simulate_csv_and_schema(tmp_path):
    code = run(["simulate", "--problem", "paper-example-1", "--t0", "0",
                "--x0", "1", "--t-end", "3", "-o", str(tmp_path),
                "--stamp", "T"])
    assert code == 0
    csv = tmp_path / "simulate-paper-example-1-T.csv"
    assert csv.exists()
    header = csv.read_text().splitlines()[0]
    assert header == "t,y1,interval_index,frozen_w1"
    _validate(tmp_path / "simulate-paper-example-1-T.json")


@pytest.mark.parametrize("argv", [
    ["simulate", "--problem", "periodic-coupled", "--t0", "0", "--x0", "0.3",
     "--t-end", "2"],
    ["manifold", "--problem", "diag-dichotomy", "--t0", "0", "--c", "0.5"],
    ["bounded", "--problem", "forced-scalar", "--window", "0", "3"],
    ["periodic", "--problem", "periodic-coupled"],
], ids=["simulate", "manifold", "bounded", "periodic"])
def test_simulate_determinism(tmp_path, argv):
    for d in ("a", "b"):
        code = run(argv + ["--seed", "7", "-o", str(tmp_path / d), "--stamp", "T"])
        assert code == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert {n.rsplit(".", 1)[-1] for n in names} >= {"json", "csv"}
    for n in names:
        assert (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()


def test_verify_writes_a_report_that_validates(tmp_path):
    code = run(["verify", "-o", str(tmp_path), "--stamp", "T"])
    assert code == 0
    payload = _validate(tmp_path / "verify-registry-T.json")
    assert payload["results"]["all_passed"] is True
    assert [c["number"] for c in payload["results"]["criteria"]] == list(range(1, 14))


def test_verify_report_is_deterministic(tmp_path):
    for d in ("a", "b"):
        code = run(["verify", "--only", "1,2,3", "--seed", "7",
                    "-o", str(tmp_path / d), "--stamp", "T"])
        assert code == 0
    name = "verify-registry-T.json"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_converts_every_numpy_scalar(tmp_path):
    results = {"ok": np.bool_(True), "x": np.float32(0.5), "k": np.int8(3),
               "s": np.str_("a")}
    _, paths = emit_report(tmp_path, "check", None, results, stamp="T")
    assert json.loads(paths["json"].read_text())["results"] == {
        "ok": True, "x": 0.5, "k": 3, "s": "a"}


def test_simulate_domain_error_of_the_state_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "div.cfg"
    cfg.write_text(CONFIG.replace("f1 = 0.5 + 0.1*w1", "f1 = 0.5/w1"))
    argv = ["simulate", str(cfg), "--t0", "0", "--t-end", "2", "-o", str(tmp_path / "out"),
            "--stamp", "T"]
    assert run(argv + ["--x0", "0.2"]) == 0
    assert run(argv + ["--x0", "0"]) == 1
    assert "division by zero at line 5" in capsys.readouterr().err


@pytest.mark.parametrize("f1, argv, message", [
    # g(t, 0, 0) is already undefined: the bound check on the mesh raises
    ("0.01/w1", ["bounded", "--window", "0", "3"], "division by zero at line 5, column 10"),
    # g(t, 0, 0) = 0, but the first sweep from c = -0.1 leaves the domain
    ("0.01*log(1 + 20*w1)", ["manifold", "--c=-0.1"],
     "log of non-positive value at line 5, column 11"),
], ids=["bounded-origin", "manifold-sweep"])
def test_domain_error_on_the_mesh_names_its_position(tmp_path, capsys, f1, argv, message):
    # the integrand is evaluated on arrays of mesh times; its domain error
    # still raises with its position instead of ending in NaN sweeps
    cfg = tmp_path / "dom.cfg"
    cfg.write_text(CONFIG.replace("f1 = 0.5 + 0.1*w1", f"f1 = {f1}"))
    code = run([argv[0], str(cfg), *argv[1:], "-o", str(tmp_path / "out"), "--stamp", "T"])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert "no convergence" not in err


def test_backcontinue_no_preimage_exit_code(tmp_path):
    code = run(["backcontinue", "--problem", "paper-example-1", "--t0", "1",
                "--x0", "6", "--t-target", "0", "-o", str(tmp_path),
                "--stamp", "T"])
    assert code == 2
    payload = _validate(tmp_path / "backcontinue-paper-example-1-T.json")
    assert payload["results"]["ok"] is False


def test_backcontinue_target_whose_norm_overflows_has_no_preimage(tmp_path, capsys):
    code = run(["backcontinue", "--problem", "paper-example-1", "--t0", "1",
                "--x0", "1e300", "--t-target", "0", "-o", str(tmp_path),
                "--stamp", "T"])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--problem", "paper-example-1", "--t0", "0", "--x0", "1",
     "--t-end", "1", "--substeps", "0"],
    ["simulate", "--problem", "paper-example-1", "--t0", "0", "--x0", "1",
     "--t-end", "1", "--substeps", "-5"],
    ["backcontinue", "--problem", "paper-example-1", "--t0", "1", "--x0", "1",
     "--t-target", "0", "--substeps", "5000"],
    ["manifold", "--problem", "diag-dichotomy", "--c", "0.5", "--tol", "0"],
    ["manifold", "--problem", "diag-dichotomy", "--c", "0.5", "--tol", "-1"],
    ["manifold", "--problem", "diag-dichotomy", "--c", "0.5", "--horizon", "-1"],
    ["bounded", "--problem", "forced-scalar", "--window", "0", "3", "--tol", "0"],
    ["bounded", "--problem", "forced-scalar", "--window", "0", "3", "--tol", "-1"],
    ["bounded", "--problem", "forced-scalar", "--window", "0", "3", "--tol", "0.5"],
], ids=["simulate-substeps-0", "simulate-substeps-neg", "backcontinue-substeps-5000",
        "manifold-tol-0", "manifold-tol-neg", "manifold-horizon-neg", "bounded-tol-0",
        "bounded-tol-neg", "bounded-tol-0.5"])
def test_out_of_bounds_flag_is_config_error(tmp_path, capsys, argv):
    code = run(argv + ["-o", str(tmp_path), "--stamp", "T"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_backcontinue_success(tmp_path):
    code = run(["backcontinue", "--problem", "periodic-coupled", "--t0", "1.5",
                "--x0", "0.4", "--t-target", "0", "-o", str(tmp_path),
                "--stamp", "T"])
    assert code == 0
    payload = _validate(tmp_path / "backcontinue-periodic-coupled-T.json")
    assert all(s["classification"] == "unique" for s in payload["results"]["steps"])


def test_backcontinue_report_carries_each_steps_search_counts(tmp_path):
    argv = ["backcontinue", "--problem", "periodic-coupled", "--t0", "1.5",
            "--x0", "0.4", "--t-target", "0", "--stamp", "T"]
    for d in ("a", "b"):
        assert run(argv + ["-o", str(tmp_path / d)]) == 0
    name = "backcontinue-periodic-coupled-T.json"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    steps = _validate(tmp_path / "a" / name)["results"]["steps"]
    assert len(steps) == 3
    for step in steps:
        diag = step["diagnostics"]
        assert diag["starts"] == 1 and diag["path"] == "weights"
        assert diag["shooting_calls"] >= 1 and diag["shooting_rows"] >= diag["shooting_calls"]
        assert 0.0 <= diag["jacobian_gap"] <= diag["lhs"]


def test_manifold_sweep_files(tmp_path):
    code = run(["manifold", "--problem", "diag-dichotomy", "--side", "stable",
                "--t0", "0", "--grid-of-c=-1:1:11", "-o", str(tmp_path),
                "--stamp", "T"])
    assert code == 0
    csv = tmp_path / "manifold-diag-dichotomy-T.csv"
    rows = csv.read_text().strip().splitlines()
    assert len(rows) == 12  # header + 11 sweep points
    trajs = sorted(tmp_path.glob("manifold-diag-dichotomy-T-trajectory-*.csv"))
    assert len(trajs) == 11
    _validate(tmp_path / "manifold-diag-dichotomy-T.json")


def test_bounded_report_fields(tmp_path):
    code = run(["bounded", "--problem", "forced-scalar", "--window", "0", "5",
                "-o", str(tmp_path), "--stamp", "T"])
    assert code == 0
    payload = _validate(tmp_path / "bounded-forced-scalar-T.json")
    for key in ("bound", "sup_norm", "iterations"):
        assert key in payload["results"]


def test_bounded_reversed_window_is_invalid_parameter(tmp_path, capsys):
    code = run(["bounded", "--problem", "forced-scalar", "--window", "5", "0",
                "-o", str(tmp_path), "--stamp", "T"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_periodic_report_fields(tmp_path):
    code = run(["periodic", "--problem", "periodic-coupled", "-o", str(tmp_path),
                "--stamp", "T"])
    assert code == 0
    payload = _validate(tmp_path / "periodic-periodic-coupled-T.json")
    res = payload["results"]
    assert (res["k"], res["m"]) == (2, 1)
    assert res["residual"] <= 1e-6


def test_check_exit_reflects_verdict(tmp_path):
    ok = run(["check", "--mu", "1", "--l", "0.01", "--theta", "1",
              "-o", str(tmp_path), "--stamp", "T1"])
    assert ok == 0
    bad = run(["check", "--mu", "2", "--l", "0.2", "--theta", "1",
               "-o", str(tmp_path), "--stamp", "T2"])
    assert bad == 4


@pytest.mark.parametrize("argv,message", [
    (["--mu", "nan", "--l", "0.1", "--theta", "1"], "mu must be finite"),
    (["--mu", "1", "--l", "0.1", "--theta", "1", "--K", "nan", "--sigma", "1"],
     "K must be finite"),
], ids=["mu-nan", "K-nan"])
def test_check_of_a_non_finite_flag_is_invalid_parameter(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code = run(["check", *argv, "-o", str(out), "--stamp", "T"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--mu", "1000", "--l", "0.1", "--theta", "1"],
    ["--mu", "1", "--l", "0.1", "--theta", "1", "--K", "1e200", "--sigma", "1"],
], ids=["mu-1000", "K-1e200"])
def test_check_whose_lhs_overflows_fails_with_a_report(tmp_path, capsys, argv):
    code = run(["check", *argv, "-o", str(tmp_path), "--stamp", "T"])
    assert code == 4
    assert "Traceback" not in capsys.readouterr().err
    results = _validate(tmp_path / "check-direct-T.json")["results"]
    checks = [results["backward_uniqueness"], *results.get("smallness", {}).get("checks", [])]
    assert any(c["lhs"] is None and c["margin"] is None and not c["holds"] for c in checks)


def test_check_with_problem(tmp_path, capsys):
    code = run(["check", "--problem", "paper-example-1", "--l", "0.01",
                "--mu", "2", "--theta", "1", "-o", str(tmp_path), "--stamp", "T"])
    out = capsys.readouterr().out
    assert "backward_uniqueness" in out
    assert code in (0, 4)
    _validate(tmp_path / "check-paper-example-1-T.json")


def test_reduce_summary(tmp_path, capsys):
    code = run(["reduce", "--problem", "diag-dichotomy", "-o", str(tmp_path),
                "--stamp", "T"])
    assert code == 0
    out = capsys.readouterr().out
    assert "contracting dim 1" in out
    _validate(tmp_path / "reduce-diag-dichotomy-T.json")


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_reduce_without_pairs_is_config_error(tmp_path, pairs, capsys):
    code = run(["reduce", "--problem", "diag-dichotomy", "--pairs", pairs,
                "-o", str(tmp_path), "--stamp", "T"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(CONFIG)
    code = run(["simulate", str(cfg), "--t0", "0", "--x0", "0.2",
                "--t-end", "2", "-o", str(tmp_path), "--stamp", "T"])
    assert code == 0
    assert (tmp_path / "simulate-sys-T.csv").exists()


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.replace("f1 = 0.5 + 0.1*w1", "f1 = 0.5 + 0.1*q1"))
    code = run(["simulate", str(cfg), "--t0", "0", "--x0", "0.2",
                "--t-end", "2", "-o", str(tmp_path), "--stamp", "T"])
    assert code == 1


def test_config_key_given_twice_exit_code(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(CONFIG.replace("lip = 0.1", "lip = 0.1\nlip = 0.2"))
    out = tmp_path / "out"
    code = run(["simulate", str(cfg), "--t0", "0", "--x0", "0.2",
                "--t-end", "2", "-o", str(out), "--stamp", "T"])
    assert code == 1
    assert "key 'lip' given twice in [constants]" in capsys.readouterr().err
    assert not out.exists()


_GRID = "kind = uniform\nstep = 1.0\noffset = 0.0\nwindow = -30 30"
_A_INF = CONFIG.replace("A11 = -1", "A11 = 1e308*10")
_H0_NAN = CONFIG.replace("h0 = 0.5", "h0 = nan")


@pytest.mark.parametrize("config,argv,message", [
    (CONFIG.replace("step = 1.0", "step = nan"), ["check"], "step must be finite"),
    (CONFIG.replace("offset = 0.0", "offset = nan"), ["check"], "offset must be finite"),
    (CONFIG.replace("window = -30 30", "window = 0 inf"), ["check"], "window must be finite"),
    (CONFIG.replace(_GRID, "kind = explicit\nknots = 0 1 inf"), ["check"],
     "knots must be finite"),
    (CONFIG.replace(_GRID, "kind = periodic-pattern\npattern = 0 0.5\nperiod = nan"),
     ["check"], "period must be finite"),
    (_A_INF, ["check"], "A must have finite entries"),
    (_A_INF, ["bounded"], "A must have finite entries"),
    (_A_INF, ["reduce"], "A must have finite entries"),
    (_A_INF, ["periodic"], "A must have finite entries"),
    (_A_INF, ["manifold", "--t0", "0", "--c", "0.5"], "A must have finite entries"),
    (_H0_NAN, ["bounded"], "h0 must be finite"),
    (_H0_NAN, ["periodic"], "h0 must be finite"),
    (CONFIG.replace("h0 = 0.5", "h0 = 0.5\nperiod = nan"), ["periodic"],
     "periods must be positive and finite"),
    (CONFIG.replace("h0 = 0.5", "h0 = 0.5\nperiod = inf"), ["periodic"],
     "periods must be positive and finite"),
    (CONFIG.replace("mu = 1.0", "mu = nan"), ["check"], "mu must be finite"),
    (CONFIG.replace("lip = 0.1", "lip = inf"), ["check"], "lip must be finite"),
], ids=["step-nan", "offset-nan", "window-inf", "knots-inf", "grid-period-nan",
        "A-inf-check", "A-inf-bounded", "A-inf-reduce", "A-inf-periodic", "A-inf-manifold",
        "h0-nan-bounded", "h0-nan-periodic", "period-nan", "period-inf", "mu-nan", "lip-inf"])
def test_non_finite_config_value_is_invalid_parameter(tmp_path, capsys, config, argv, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    code = run([argv[0], str(cfg), *argv[1:], "-o", str(out), "--stamp", "T"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("grid", [
    "kind = uniform\nstep = 1.0\noffset = 0.0\nwindow = 0 1e300",
    "kind = periodic-pattern\npattern = 0 0.5\nperiod = 1.0\nwindow = 0 1e300",
], ids=["uniform", "periodic"])
def test_window_with_too_many_knots_is_invalid_parameter(tmp_path, capsys, grid):
    cfg = tmp_path / "long.cfg"
    cfg.write_text(CONFIG.replace(_GRID, grid))
    out = tmp_path / "out"
    code = run(["check", str(cfg), "-o", str(out), "--stamp", "T"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "more than 10**7" in err
    assert not out.exists()


def test_malformed_config_exits_with_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.replace("n = 1", "n = 0"))
    out = tmp_path / "out"
    code = run(["check", str(cfg), "-o", str(out), "--stamp", "T"])
    assert code == 1
    assert capsys.readouterr().err == "error: n must be >= 1\n"
    assert not out.exists()


def test_missing_system_is_config_error(tmp_path):
    code = run(["simulate", "--t0", "0", "--x0", "1", "--t-end", "1",
                "-o", str(tmp_path)])
    assert code == 1


def test_out_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("EPCAG_LAB_OUT", str(tmp_path / "env-out"))
    code = run(["check", "--mu", "1", "--l", "0.0", "--theta", "1",
                "--stamp", "T"])
    assert code == 0
    assert (tmp_path / "env-out" / "check-direct-T.json").exists()


def test_verify_subset(tmp_path):
    code = run(["verify", "--only", "1,5", "-o", str(tmp_path), "--stamp", "T"])
    assert code == 0
    payload = _validate(tmp_path / "verify-registry-T.json")
    assert payload["results"]["all_passed"] is True
    assert [c["number"] for c in payload["results"]["criteria"]] == [1, 5]


def test_verify_prints_timed_lines_to_stderr(tmp_path, capsys):
    code = run(["verify", "--only", "1,5", "-o", str(tmp_path), "--stamp", "T"])
    assert code == 0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    passes = [line for line in err if line.startswith("[PASS] criterion")]
    assert len(passes) == 2 and all(line.endswith("s)") for line in passes)
    assert err[-1].startswith("2/2 criteria passed in ")
    assert "[PASS]" not in captured.out and "criteria passed" not in captured.out
    assert (tmp_path / "verify-registry-T.json").exists()


@pytest.mark.parametrize("only", ["99", "1,99", "0", "abc", "1.5"])
def test_verify_unknown_criterion_is_config_error(tmp_path, only, capsys):
    code = run(["verify", "--only", only, "-o", str(tmp_path), "--stamp", "T"])
    assert code == 1
    captured = capsys.readouterr()
    assert "criteria passed" not in captured.out + captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["simulate", "--problem", "paper-example-1", "--t0", "0", "--x0", "abc",
     "--t-end", "1"],
    ["backcontinue", "--problem", "paper-example-1", "--t0", "1", "--x0", "1,",
     "--t-target", "0"],
    ["manifold", "--problem", "diag-dichotomy", "--grid-of-c=1:2"],
    ["manifold", "--problem", "diag-dichotomy", "--grid-of-c=a:1:3"],
    ["manifold", "--problem", "diag-dichotomy", "--grid-of-c=0:1:2.5"],
    ["manifold", "--problem", "diag-dichotomy", "--grid-of-c=0:1:0"],
    ["manifold", "--problem", "diag-dichotomy", "--c", "nan"],
])
def test_malformed_numbers_are_config_errors(tmp_path, argv, capsys):
    code = run(argv + ["-o", str(tmp_path), "--stamp", "T"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--problem", "paper-example-1", "--t0", "0", "--x0", "1,2",
     "--t-end", "1"],
    ["simulate", "--problem", "paper-example-1", "--t0", "0", "--x0", "nan",
     "--t-end", "1"],
    ["simulate", "--problem", "paper-example-1", "--t0", "0.5", "--x0", "1",
     "--w0", "1,2", "--t-end", "1"],
    ["backcontinue", "--problem", "paper-example-1", "--t0", "1", "--x0", "0,1",
     "--t-target", "0"],
    ["backcontinue", "--problem", "paper-example-1", "--t0", "1", "--x0", "inf",
     "--t-target", "0"],
    ["manifold", "--problem", "diag-dichotomy", "--c", "1,2"],
])
def test_bad_state_vector_is_invalid_parameter(tmp_path, argv, capsys):
    code = run(argv + ["-o", str(tmp_path), "--stamp", "T"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_integration_failure_exit_code(tmp_path):
    # double-exponential growth trips the overflow guard well before t = 8
    code = run(["simulate", "--problem", "paper-example-1", "--t0", "0",
                "--x0", "1", "--t-end", "8", "-o", str(tmp_path), "--stamp", "T"])
    assert code == 3


def test_check_labels_sampled_estimates(tmp_path, capsys):
    cfg = tmp_path / "est.cfg"
    cfg.write_text(CONFIG.replace("mu = 1.0", "mu = estimate"))
    code = run(["check", str(cfg), "--theta", "1", "-o", str(tmp_path),
                "--stamp", "T"])
    out = capsys.readouterr().out
    assert "based on sampled estimates" in out
    assert code in (0, 4)
    payload = _validate(tmp_path / "check-est-T.json")
    assert payload["results"]["based_on_sampled_estimates"] == ["mu"]


def test_csv_floats_round_trip_exactly():
    from epcag_lab.reporting import fmt

    rng = __import__("numpy").random.default_rng(8)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(fmt(float(x))) == float(x)


def test_config_run_and_tolerance_overrides(tmp_path):
    cfg = tmp_path / "tuned.cfg"
    cfg.write_text(CONFIG + "\n[run]\nseed = 11\n\n[tolerances]\nsteady_tol = 1e-10\nsubsteps = 32\n")
    code = run(["bounded", str(cfg), "--window", "0", "3", "-o", str(tmp_path),
                "--stamp", "T"])
    assert code == 0
    payload = _validate(tmp_path / "bounded-tuned-T.json")
    assert payload["seed"] == 11
    cfg_bad = tmp_path / "bad.cfg"
    cfg_bad.write_text(CONFIG + "\n[tolerances]\nsteady_tol = 5\n")
    assert run(["bounded", str(cfg_bad), "-o", str(tmp_path)]) == 1
    cfg_unknown = tmp_path / "unk.cfg"
    cfg_unknown.write_text(CONFIG + "\n[run]\nbogus = 1\n")
    assert run(["bounded", str(cfg_unknown), "-o", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--only", "1"],
    ["bounded", "--problem", "forced-scalar", "--window", "0", "3"],
    ["simulate", "--problem", "paper-example-1", "--t0", "0", "--x0", "1", "--t-end", "1"],
    ["check", "--mu", "1", "--l", "0", "--theta", "1"],
], ids=["verify", "bounded", "simulate", "check"])
def test_negative_seed_flag_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = run(argv + ["--seed", "-1", "-o", str(out), "--stamp", "T"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --seed = -1 ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_negative_seed_in_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text(CONFIG + "\n[run]\nseed = -1\n")
    out = tmp_path / "out"
    code = run(["bounded", str(cfg), "--window", "0", "3", "-o", str(out), "--stamp", "T"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed = -1 ") and "Traceback" not in err
    assert not out.exists()


def _error_classes(cls=EpcagError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


_EXIT_CODES = {IntegrationFailureError: 3, BlowUpError: 3, ConditionError: 4}


@pytest.mark.parametrize("cls", [EpcagError, *_error_classes()], ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_code(tmp_path, monkeypatch, capsys, cls):
    assert cls.exit_code == _EXIT_CODES.get(cls, 1)

    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_check", fail)
    code = run(["check", "--mu", "1", "--l", "0", "--theta", "1", "-o", str(tmp_path)])
    assert code == cls.exit_code
    assert capsys.readouterr().err == f"{cls.label}: boom\n"
    assert not list(tmp_path.iterdir())
