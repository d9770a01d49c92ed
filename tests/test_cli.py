"""End-to-end checks of the command-line interface."""

import json
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pseudobound
from pseudobound import checks, cli, core, nmr, tomography
from conftest import EPS_OPT


def run(argv):
    return cli.main(argv)


def test_state_and_ppt(tmp_path):
    rho_path = tmp_path / "rho.json"
    assert run(["state", "--a", "0.346", "--out", str(rho_path)]) == 0
    blob = json.loads(rho_path.read_text())
    assert blob["dim"] == 8
    assert blob["meta"]["entangled_regime"] is True

    ppt_path = tmp_path / "ppt.json"
    assert run(["ppt", "--state", str(rho_path), "--out", str(ppt_path)]) == 0
    verdict = json.loads(ppt_path.read_text())
    assert verdict["all_ppt"] is True
    assert set(verdict["cuts"]) == {"1|23", "2|13", "3|12"}


def test_ppt_flags_npt_state(tmp_path):
    # a pure GHZ state is NPT on every cut
    rho_path = tmp_path / "ghz.json"
    from pseudobound import states
    g = states.ghz(+1)
    rho_path.write_text(json.dumps(core.matrix_to_json(np.outer(g, g.conj()))))
    assert run(["ppt", "--state", str(rho_path)]) == 1


def test_witness_eval(tmp_path, capsys):
    rho_path = tmp_path / "rho.json"
    run(["state", "--out", str(rho_path)])
    out_path = tmp_path / "w.json"
    assert run(["witness", "eval", "--state", str(rho_path),
                "--out", str(out_path)]) == 0
    blob = json.loads(out_path.read_text())
    assert blob["expectation"] == pytest.approx(-EPS_OPT, abs=1e-9)
    assert blob["detected"] is True


def test_witness_eval_not_detected(tmp_path):
    mixed_path = tmp_path / "mixed.json"
    mixed_path.write_text(json.dumps(core.matrix_to_json(np.eye(8) / 8)))
    assert run(["witness", "eval", "--state", str(mixed_path)]) == 1


def test_witness_optimize(tmp_path):
    out = tmp_path / "opt.json"
    assert run(["witness", "optimize", "--range", "0.2:0.6", "--restarts", "40",
                "--seed", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert 0.30 <= rep["a"] <= 0.40
    assert 0.09 <= rep["epsilon_certified"] <= 0.12
    assert rep["trace"]


def test_prepare(tmp_path):
    out = tmp_path / "prep.json"
    assert run(["prepare", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["kappa"] == pytest.approx(8.4e-5)
    assert 8.4e-5 / blob["p"] == pytest.approx(3.61, abs=0.01)
    assert blob["temporal_weights"]["residual"] <= 1e-10
    weights = blob["temporal_weights"]["weights"]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    assert min(weights) >= 0


def test_prepare_expands_the_seed_once(tmp_path):
    # the seed the weights are solved against is also the one prepared; the
    # fraction and the input ratio need only z-orders
    with mock.patch.object(nmr, "target_diagonal", wraps=nmr.target_diagonal) as spy:
        assert run(["prepare", "--out", str(tmp_path / "prep.json")]) == 0
    assert spy.call_count == 1


def test_prepare_without_p_past_the_reachable_a_exits_2(tmp_path, capsys):
    assert run(["prepare", "--a", "2", "--out", str(tmp_path / "prep.json")]) == 2
    err = capsys.readouterr().err
    assert "a=2" in err and "--p" in err


def test_build_report_stays_array_native():
    # one report: no per-record objects, one measure call per experiment
    # and the six state validations the benchmark pins
    post_inits = {cls: vars(cls)["__post_init__"]
                  for cls in (tomography.TomographyRecord, core.DensityOperator)}
    with mock.patch.object(tomography, "measure", wraps=tomography.measure) as measure, \
            mock.patch.object(tomography.TomographyRecord, "__post_init__", autospec=True,
                              side_effect=post_inits[tomography.TomographyRecord]) as records, \
            mock.patch.object(core.DensityOperator, "__post_init__", autospec=True,
                              side_effect=post_inits[core.DensityOperator]) as validations:
        cli.build_report(cli.RunConfig())
    assert records.call_count == 0
    assert measure.call_count == 21
    assert validations.call_count == 6


def test_tomo_pipeline_and_metrics(tmp_path):
    rho_path = tmp_path / "rho.json"
    data_path = tmp_path / "data.json"
    hat_path = tmp_path / "hat.json"
    run(["state", "--out", str(rho_path)])
    assert run(["tomo", "simulate", "--state", str(rho_path),
                "--sigma", "0", "--out", str(data_path)]) == 0
    assert run(["tomo", "reconstruct", "--data", str(data_path),
                "--out", str(hat_path)]) == 0
    blob = json.loads(hat_path.read_text())
    assert blob["meta"]["residual_norm"] <= 1e-10

    metrics_path = tmp_path / "m.json"
    assert run(["metrics", "--state", str(hat_path),
                "--reference", str(rho_path), "--out", str(metrics_path)]) == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["uhlmann_fidelity"] == pytest.approx(1.0, abs=1e-7)
    assert metrics["trace_distance"] == pytest.approx(0.0, abs=1e-7)


def test_tomo_simulate_deterministic(tmp_path):
    rho_path = tmp_path / "rho.json"
    run(["state", "--out", str(rho_path)])
    d1, d2 = tmp_path / "d1.json", tmp_path / "d2.json"
    run(["tomo", "simulate", "--state", str(rho_path), "--sigma", "1e-3",
         "--seed", "9", "--out", str(d1)])
    run(["tomo", "simulate", "--state", str(rho_path), "--sigma", "1e-3",
         "--seed", "9", "--out", str(d2)])
    assert d1.read_text() == d2.read_text()


def test_dataset_save_matches_tomo_simulate_bytes(tmp_path):
    rho_path, cli_path, saved = (tmp_path / name for name in ("rho.json", "d.json", "s.json"))
    run(["state", "--out", str(rho_path)])
    run(["tomo", "simulate", "--state", str(rho_path), "--out", str(cli_path)])
    rho = core.DensityOperator.loose(core.matrix_from_json(core.read_json(rho_path)))
    tomography.generate_dataset(rho, sigma=1e-3, seed=7).save(saved)
    assert saved.read_bytes() == cli_path.read_bytes()
    assert saved.read_bytes().endswith(b"]\n")


def test_report_exact_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["report", "--sigma", "0", "--noise-lambda", "0",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["schema_version"] == 1
    assert rep["witness"]["expectation"] == pytest.approx(-EPS_OPT, abs=1e-9)
    assert rep["witness"]["sigma"] == 0.0
    assert rep["metrics"]["uhlmann_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert rep["metrics"]["trace_distance"] == pytest.approx(0.0, abs=1e-9)
    assert rep["ppt"]["all_ppt"] is True
    text = capsys.readouterr().out
    for needle in ("PPT cuts", "<W> =", "Uhlmann fidelity", "trace distance",
                   "entangled: yes"):
        assert needle in text


def test_report_default_noise_run(tmp_path):
    out = tmp_path / "report.json"
    assert run(["report", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["entangled"] is True
    assert rep["ppt"]["all_ppt"] is True
    assert rep["witness"]["expectation"] < 0
    assert 0.005 <= rep["witness"]["sigma"] <= 0.02
    assert 0.97 <= rep["metrics"]["uhlmann_fidelity"] <= 0.995
    assert 0.05 <= rep["metrics"]["trace_distance"] <= 0.13


def test_report_determinism():
    cfg = cli.RunConfig()
    assert cli.build_report(cfg) == cli.build_report(cfg)


def test_report_refuses_p_zero(capsys):
    code = run(["report", "--p", "0"])
    assert code == 2
    assert "p = 0" in capsys.readouterr().err


def test_verify_passes(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    n = len(checks.CHECKS)
    assert f"{n}/{n} checks passed" in out


def test_verify_catches_broken_preparation(monkeypatch, capsys):
    # one flipped sign in the gate sequence must not go unnoticed
    broken = nmr.preparation_unitary()
    broken[7, 0] = -broken[7, 0]
    monkeypatch.setattr(nmr, "preparation_unitary", lambda: broken)
    assert run(["verify"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def test_verify_counts_a_crash_as_failure(monkeypatch, capsys):
    def crash(rng):
        raise RuntimeError("boom")

    name = checks.CHECKS[2][0]
    monkeypatch.setattr(checks, "CHECKS", tuple(
        (n, crash if n == name else fn) for n, fn in checks.CHECKS))
    assert run(["verify"]) == 2
    lines, n = capsys.readouterr().out.splitlines(), len(checks.CHECKS)
    assert f"[FAIL] {name}: raised RuntimeError: boom" in lines
    assert sum(line.startswith("[PASS]") for line in lines) == n - 1
    assert lines[-1] == f"{n - 1}/{n} checks passed"


def test_cli_reports_bad_input(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["ppt", "--state", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


_RECORD = {"setting": "Y1E2E3", "detect": "C", "line": "00", "quad": "x",
           "value": 0.0, "sigma": 1e-3}

# raw file text: nested deeper than the interpreter's recursion limit
_DEEP = "[" * 100_000


_NOT_HERMITIAN = np.diag([5.0, 0, 0, 0, 0, 0, 0, -1.0])
_NOT_HERMITIAN[0, 1] = 3.0


@pytest.mark.parametrize("command, payload", [
    ("ppt", {"dim": 8, "re": [[1]]}),
    ("metrics", {"dim": 8, "re": [[1]]}),
    ("ppt", [[1, 0], [0, 0]]),
    ("ppt", {"dim": 2, "re": [["a", 0], [0, 0]], "im": [[0, 0], [0, 0]]}),
    ("ppt", {"dim": None, "re": [[1]], "im": [[0]]}),
    ("tomo", [{k: v for k, v in _RECORD.items() if k != "detect"}]),
    ("tomo", {"records": [_RECORD]}),
    ("tomo", []),
    ("tomo", [dict(_RECORD, line="22")]),
    ("tomo", [dict(_RECORD, setting="Y1E2")]),
    ("tomo", [dict(_RECORD, detect="N")]),
    ("tomo", [dict(_RECORD, quad="z")]),
    ("tomo", [dict(_RECORD, value=None)]),
    ("tomo", [dict(_RECORD, sigma="wide")]),
    ("tomo", ["Y1E2E3"]),
    ("ppt", _DEEP),
    ("tomo", _DEEP),
    ("metrics", _DEEP),
    ("ppt", core.matrix_to_json(_NOT_HERMITIAN)),
    ("metrics", core.matrix_to_json(_NOT_HERMITIAN)),
    ("ppt", core.matrix_to_json(np.eye(8) / 4)),
], ids=["ppt-missing-im", "metrics-missing-im", "ppt-list", "ppt-non-numeric",
        "ppt-null-dim", "tomo-missing-detect", "tomo-object", "tomo-empty",
        "tomo-bad-line", "tomo-bad-setting", "tomo-bad-detect", "tomo-bad-quad",
        "tomo-null-value", "tomo-text-sigma", "tomo-non-object-record",
        "ppt-deep", "tomo-deep", "metrics-deep", "ppt-not-hermitian",
        "metrics-not-hermitian", "ppt-trace-2"])
def test_malformed_input_exits_2(tmp_path, capsys, command, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    rho = tmp_path / "rho.json"
    run(["state", "--out", str(rho)])
    argv = {"ppt": ["ppt", "--state", str(bad)],
            "metrics": ["metrics", "--state", str(bad), "--reference", str(rho)],
            "tomo": ["tomo", "reconstruct", "--data", str(bad)]}[command]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["ppt", "--tolerance", "nan"],
    ["ppt", "--tolerance", "inf"],
    ["ppt", "--tolerance", "-1"],
    ["tomo", "simulate", "--sigma", "nan"],
    ["tomo", "simulate", "--sigma", "inf"],
], ids=["ppt-nan-tolerance", "ppt-inf-tolerance", "ppt-negative-tolerance",
        "tomo-nan-sigma", "tomo-inf-sigma"])
def test_non_finite_or_negative_number_exits_2(tmp_path, capsys, argv):
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(core.matrix_to_json(np.eye(8) / 8)))
    out = tmp_path / "out.json"
    assert run([*argv, "--state", str(mixed), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["prepare", "--a", "nan"], "a1, a2, a3"),
    (["state", "--a", "inf"], "a1, a2, a3"),
    (["report", "--a", "inf"], "a1, a2, a3"),
    (["report", "--eps", "nan"], "epsilon"),
    (["witness", "optimize", "--range", "0.1:inf"], "search range"),
], ids=["prepare-nan-a", "state-inf-a", "report-inf-a", "report-nan-eps",
        "optimize-inf-range"])
def test_non_finite_parameter_exits_2(tmp_path, capsys, argv, name):
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*argv, "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("p", [[], ["--p", "1e-5"]], ids=["matched-p", "given-p"])
@pytest.mark.parametrize("kappa", ["0", "-1", "nan", "inf", "1"])
def test_prepare_bad_kappa_names_kappa(tmp_path, capsys, kappa, p):
    out = tmp_path / "out.json"
    assert run(["prepare", "--kappa", kappa, *p, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "kappa" in err and "fraction p=" not in err
    assert not out.exists()


def test_non_register_state_exits_2(tmp_path, capsys):
    # a well-formed 4x4 state is no state of the three-qubit register
    four = tmp_path / "four.json"
    four.write_text(json.dumps({"dim": 4, "re": (np.eye(4) / 4).tolist(),
                                "im": np.zeros((4, 4)).tolist()}))
    rho = tmp_path / "rho.json"
    run(["state", "--out", str(rho)])
    for argv in (["ppt", "--state", four],
                 ["witness", "eval", "--state", four],
                 ["tomo", "simulate", "--state", four],
                 ["metrics", "--state", four, "--reference", four],
                 ["metrics", "--state", rho, "--reference", four]):
        assert run([str(a) for a in argv]) == 2, argv
        assert "8x8" in capsys.readouterr().err


def test_import_loads_no_scipy():
    src = Path(pseudobound.__file__).resolve().parents[1]
    code = ("import sys, pseudobound; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "[]"
