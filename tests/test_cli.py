"""End-to-end checks of the command-line interface."""

import argparse
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pseudobound
from pseudobound import checks, cli, core, nmr, pipeline, states, tomography, witnesses
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


def test_ppt_output_is_the_reports_wire_object(tmp_path):
    # ppt writes its tolerance, then the report's own wire object, keys in order
    rho_path, out = tmp_path / "ps.json", tmp_path / "ppt.json"
    assert run(["state", "--p", "0.5", "--out", str(rho_path)]) == 0
    assert run(["ppt", "--state", str(rho_path), "--tolerance", "1e-3", "--out", str(out)]) == 0
    report = core.is_ppt(cli._load_density(str(rho_path)), tolerance=1e-3)
    assert out.read_text() == core.json_text({"tolerance": 1e-3, **report.as_dict()})
    assert list(json.loads(out.read_text())) == ["tolerance", "cuts", "all_ppt"]


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


@pytest.mark.parametrize("p", [[], ["--p", "1e-5"]], ids=["matched-p", "given-p"])
def test_prepare_validates_two_states(tmp_path, p):
    # the seed once and the prepared state once: the seed is built from its
    # closed-form z-orders, and the weights are solved on the five inputs'
    # z-orders, with no matrix built for them
    post_init = vars(core.DensityOperator)["__post_init__"]
    with mock.patch.object(core.DensityOperator, "__post_init__", autospec=True,
                           side_effect=post_init) as validations:
        assert run(["prepare", *p, "--out", str(tmp_path / "prep.json")]) == 0
    assert validations.call_count == 2


def test_prepare_achieved_p_down_to_the_smallest_p(tmp_path):
    # achieved_p is fitted with the seed's p-free z-orders, so a seed that
    # rounds away under Id/8 still gives it.  Off the matched p the weights
    # are interior, and achieved_p is affine in p: k + p (1 - k / p_matched),
    # where k is its limit as p -> 0
    out = tmp_path / "prep.json"
    achieved = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in ("1e-12", "1e-17", "1e-150", "1e-300", "5e-324"):
            assert run(["prepare", "--p", p, "--out", str(out)]) == 0
            achieved[float(p)] = json.loads(out.read_text())["temporal_weights"]["achieved_p"]
    matched = nmr.matched_fraction(states.A_OPT, nmr.DEFAULT_KAPPA_H)
    k = achieved[5e-324]
    assert 2.06e-5 < k < 2.07e-5
    for p, value in achieved.items():
        assert value == pytest.approx(k + p * (1 - k / matched), rel=1e-12, abs=0), p


def test_prepare_at_p_1_gives_the_family_state(tmp_path):
    # p = 1 is no embedding: the seed's lowest population is 0, and the gate
    # sequence takes it to the family state itself
    out = tmp_path / "prep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["prepare", "--p", "1", "--out", str(out)]) == 0
    prepared = core.matrix_from_json(json.loads(out.read_text())["pseudo_state"])
    family = states.bound_entangled_state(states.StateParams.symmetric(states.A_OPT))
    assert np.max(np.abs(prepared - family.matrix)) <= 1e-15


def test_prepare_without_p_past_the_reachable_a_exits_2(tmp_path, capsys):
    assert run(["prepare", "--a", "2", "--out", str(tmp_path / "prep.json")]) == 2
    err = capsys.readouterr().err
    assert "a=2" in err and "--p" in err


def test_prepare_without_p_stops_at_the_synthesis_domain(tmp_path, capsys):
    # a_max = (sqrt(10) - 1)/3 = 0.72076: past it the three-spin weight is negative
    out = tmp_path / "prep.json"
    assert run(["prepare", "--a", "0.7207", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["temporal_weights"]["achieved_p"] == pytest.approx(blob["p"], rel=1e-10)
    out.unlink()
    assert run(["prepare", "--a", "0.7208", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "a=0.7208" in err and "(sqrt(10) - 1)/3 = 0.720759220056" in err and "--p" in err
    assert not out.exists()


def test_prepare_near_the_diverging_ratio_names_a(tmp_path, capsys):
    # near a = 1 + sqrt(2) the single-spin input's ratio r diverges; the
    # default kappa is valid, so the message names a and r, not the scale
    out = tmp_path / "prep.json"
    assert run(["prepare", "--a", "2.41421356", "--p", "1e-5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "a=2.414" in err and "r=" in err and "scale" not in err
    assert not out.exists()


def test_build_report_stays_array_native():
    # one report: one measure call per experiment and the six state
    # validations the benchmark pins
    post_init = vars(core.DensityOperator)["__post_init__"]
    with mock.patch.object(tomography, "measure", wraps=tomography.measure) as measure, \
            mock.patch.object(core.DensityOperator, "__post_init__", autospec=True,
                              side_effect=post_init) as validations:
        cli.build_report(cli.RunConfig())
    assert measure.call_count == 21
    assert validations.call_count == 6


def test_build_report_solves_only_the_spectra_it_reads():
    # the reconstruction's loose estimate and the peel's wrap of it are never
    # diagonalised, and the family member, its depolarized copy and the pseudo
    # state keep the spectra their constructions give, the member also its
    # square root: the peeled estimate's spectrum (on its first read, in the
    # fidelity), the PPT stack, the fidelity's product and the trace distance
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh, \
            mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        cli.build_report(cli.RunConfig())
    assert (eigvalsh.call_count, eigh.call_count) == (4, 0)


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


def test_dataset_save_matches_tomo_simulate_bytes(tmp_path, capsysbinary):
    rho_path, cli_path, saved = (tmp_path / name for name in ("rho.json", "d.json", "s.json"))
    run(["state", "--out", str(rho_path)])
    run(["tomo", "simulate", "--state", str(rho_path), "--out", str(cli_path)])
    rho = core.DensityOperator.loose(core.matrix_from_json(core.read_json(rho_path)))
    core.write_json(tomography.generate_dataset(rho, sigma=1e-3, seed=7).to_json(), saved)
    assert saved.read_bytes() == cli_path.read_bytes()
    assert saved.read_bytes().endswith(b"]\n")
    # without --out the same bytes go to standard output
    capsysbinary.readouterr()
    assert run(["tomo", "simulate", "--state", str(rho_path)]) == 0
    assert capsysbinary.readouterr().out == saved.read_bytes()


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


def test_report_models_the_depolarized_expectation():
    # modeled_expectation is <W> on the depolarized family state, in closed form
    for cfg in (pipeline.RunConfig(), pipeline.RunConfig(noise_lambda=0.0),
                pipeline.RunConfig(a=0.3, epsilon=0.05, noise_lambda=0.5, seed=1),
                pipeline.RunConfig(a=0.6, epsilon=0.2, noise_lambda=0.9, seed=2)):
        params = states.StateParams.symmetric(cfg.a)
        w = witnesses.witness(witnesses.WitnessParams(params, cfg.epsilon))
        rho = nmr.depolarize(states.bound_entangled_state(params), cfg.noise_lambda)
        modeled = pipeline.build_report(cfg)["witness"]["modeled_expectation"]
        assert modeled == pytest.approx(witnesses.expectation(w, rho), abs=1e-12), cfg


def test_report_refuses_p_zero(capsys):
    for typed in ("0", "-0", "-1"):
        assert run(["report", "--p", typed]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --p {float(typed)!r} must be positive") and "p = 0" in err


def test_report_refuses_p_above_1_by_name(capsys):
    # refused as --p before the record sigma, --sigma times --p, is checked
    for typed in ("2", "1.5", "inf", "1e300"):
        assert run(["report", "--p", typed]) == 2
        assert capsys.readouterr().err.startswith(f"error: --p {float(typed)!r} must be at most 1")
    assert run(["report", "--p", "1"]) == 0


@pytest.mark.parametrize("value, sigma, message", [
    (1e150, 1e-150, "record values up to 1e+150 in magnitude fit Pauli coordinates up to "
                    "5e+149, which give no state: trace"),
    (tomography.MAX_VALUE, 1e-3, "record values up to 8e+150 in magnitude fit Pauli "
                                 "coordinates up to 4e+150, which give no state: state entry"),
], ids=["identity-lost", "entry-beyond-bound"])
def test_reconstruct_names_the_values_that_fit_no_state(tmp_path, capsys, value, sigma, message):
    # every value lies within MAX_VALUE, but the fitted coordinates are so large
    # that Id/8 is lost to rounding or an entry of the estimate passes MAX_ENTRY
    rho, data = tmp_path / "rho.json", tmp_path / "d.json"
    run(["state", "--out", str(rho)])
    run(["tomo", "simulate", "--state", str(rho), "--out", str(data)])
    records = core.read_json(str(data))
    core.write_json([dict(r, value=value, sigma=sigma) for r in records], str(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["tomo", "reconstruct", "--data", str(data)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {data}: {message}")


def _numeric_flags(parser, path=()):
    """(subcommand path, subparser, flag, type) of every int or float option."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from _numeric_flags(subparser, (*path, name))
        elif action.type in (int, float):
            yield path, parser, action.option_strings[-1], action.type


_FLAGS = list(_numeric_flags(cli.make_parser()))
_FLAG_VALUES = {float: ("0", "-0", "-1", "nan", "inf", "-inf", "5e-324", "1e-300", "1e300",
                        "1.7976931348623157e308"),
                int: ("0", "-0", "-1", str(10**300))}


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """The file each required option of the flag table reads: a state or a dataset."""
    root = tmp_path_factory.mktemp("flags")
    rho, data = root / "rho.json", root / "d.json"
    run(["state", "--out", str(rho)])
    run(["tomo", "simulate", "--state", str(rho), "--out", str(data)])
    return {"--state": str(rho), "--reference": str(rho), "--data": str(data)}


@pytest.mark.parametrize("path, parser, flag, kind", _FLAGS,
                         ids=[" ".join((*f[0], f[2])) for f in _FLAGS])
def test_every_numeric_flag_at_extreme_values(path, parser, flag, kind, flag_inputs,
                                              monkeypatch, capsys):
    # one flag per call, as --flag=value so that argparse reads -inf as a value;
    # an asymmetric triple flag comes with the other two, and the optimizer and
    # the registry run small: their flags are what is probed
    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS[:1])
    base = [f"{a.option_strings[-1]}={flag_inputs[a.option_strings[-1]]}"
            for a in parser._actions if a.required and a.option_strings]
    triple = ("--a1", "--a2", "--a3")
    if flag in triple:
        base += [f"{other}=0.5" for other in triple if other != flag]
    if path == ("witness", "optimize"):
        base += ["--restarts=2", "--range=0.3:0.31"]
    for typed in _FLAG_VALUES[kind]:
        argv = [*path, *base, f"{flag}={typed}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = run(argv)
            except SystemExit as exc:   # argparse refuses a value with exit 2
                code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        # 1 is a verdict, "not detected", which only these three commands give
        assert code != 1 or path in (("ppt",), ("witness", "eval"), ("report",)), argv
        if code == 2:
            assert flag in err or typed in err or repr(kind(float(typed))) in err, (argv, err)


# every subcommand that writes a file; {state} and {data} are flag_inputs' files
_WIRE_COMMANDS = {
    "state": "state",
    "state --p": "state --p 2e-5",
    "prepare": "prepare",
    "tomo simulate": "tomo simulate --state {state}",
    "tomo reconstruct": "tomo reconstruct --data {data}",
    "tomo reconstruct --project": "tomo reconstruct --data {data} --project",
    "ppt": "ppt --state {state}",
    "witness eval": "witness eval --state {state}",
    "witness optimize": "witness optimize --range 0.3:0.4 --restarts 20",
    "metrics": "metrics --state {state} --reference {state}",
    "report": "report",
}


@pytest.mark.parametrize("command", list(_WIRE_COMMANDS.values()), ids=list(_WIRE_COMMANDS))
def test_every_output_file_is_the_stdlib_indented_text(command, flag_inputs, tmp_path, capsys):
    # the oracle is the stdlib's indenting encoder, not the writer under test
    files = {"{state}": flag_inputs["--state"], "{data}": flag_inputs["--data"]}
    out = tmp_path / "out.json"
    assert run([files.get(token, token) for token in command.split()] + ["--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=1) + "\n"


def _scalar_types(node) -> set:
    """The exact type of every scalar in a JSON payload."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        return set().union(*map(_scalar_types, node))
    return {type(node)}


@pytest.mark.parametrize("command", list(_WIRE_COMMANDS.values()), ids=list(_WIRE_COMMANDS))
def test_every_payload_holds_exact_json_scalars(command, flag_inputs, tmp_path, monkeypatch):
    # a NumPy scalar is written right but drops its container to the encoder's
    # one-scalar-at-a-time path; a dataset's text is written from its records
    payloads = []
    json_text = core.json_text

    def recording(payload):
        payloads.append(payload)
        return json_text(payload)

    monkeypatch.setattr(core, "json_text", recording)
    monkeypatch.setattr(tomography.TomographyDataset, "json_text",
                        lambda dataset: recording(dataset.to_json()))
    files = {"{state}": flag_inputs["--state"], "{data}": flag_inputs["--data"]}
    out = tmp_path / "out.json"
    assert run([files.get(token, token) for token in command.split()] + ["--out", str(out)]) == 0
    assert payloads
    for payload in payloads:
        assert _scalar_types(payload) <= {str, int, float, bool, type(None)}


def test_report_names_p_when_peeling_amplifies_rounding(capsys):
    # the estimate passed validation; 1/p blows its rounding past the trace check
    assert run(["report", "--p", "1e-12"]) == 2
    err = capsys.readouterr().err
    assert "p=1e-12" in err and "1/p" in err
    assert run(["report", "--p", "1e-11"]) == 0


@pytest.mark.parametrize("flag, typed", [("--p", "1e-300"), ("--sigma", "1e-200")])
def test_report_names_the_flags_behind_the_record_sigma(capsys, flag, typed):
    # the record sigma is --sigma times --p; the message quotes what was typed
    assert run(["report", flag, typed]) == 2
    err = capsys.readouterr().err
    assert f"{flag} {typed}" in err and "--sigma" in err and "--p" in err
    assert "record sigma" not in err


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


def test_out_dev_null_exits_0(capsys):
    assert run(["state", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("target, message", [
    ("", "[Errno 21] Is a directory"),
    ("missing/dir/x.json", "[Errno 2] No such file or directory"),
], ids=["directory", "missing-directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, target, message):
    out = str(tmp_path / target)
    assert run(["state", "--out", out]) == 2
    assert capsys.readouterr() == ("", f"error: {message}: {out!r}\n")


_RECORD = {"setting": "Y1E2E3", "detect": "C", "line": "00", "quad": "x",
           "value": 0.0, "sigma": 1e-3}

# raw file text: nested deeper than the interpreter's recursion limit
_DEEP = "[" * 100_000


_NOT_HERMITIAN = np.diag([5.0, 0, 0, 0, 0, 0, 0, -1.0])
_NOT_HERMITIAN[0, 1] = 3.0

# Hermitian with trace 1, but its entries overflow the arithmetic after loading
_HUGE = core.matrix_to_json(np.diag([1e308, -1e308, 1, 0, 0, 0, 0, 0]))
_BEYOND_BOUND = "state entry of magnitude 1.000e+308 beyond 1e+150"


# a full dataset file whose every sigma is too large for a finite fit weight
_FULL = [dict(_RECORD, setting=s, detect=d, line=line, quad=q, sigma=1e300)
         for s, d in tomography.default_experiments()
         for line in tomography.LINE_LABELS for q in tomography.QUADRATURES]
_NUMERIC = "objects with numeric value and sigma"
# full dataset files that take the closed-form fit: one value beyond the record
# value bound, and every value within it at the smallest sigma
_HUGE_VALUE = [dict(r, sigma=1e-3, value=1.7e308 if k == 0 else 0.0) for k, r in enumerate(_FULL)]
_HEAVY = [dict(r, sigma=1e-150, value=1e150) for r in _FULL]
# a mixed state's file, and its entries as numeric strings, false or an int
# too large for a float: a wire number must be a JSON number
_MIXED = core.matrix_to_json(np.eye(8) / 8)
_ENTRIES = "matrix JSON entries must be numbers"


@pytest.mark.parametrize("command, payload, message", [
    ("ppt", {"dim": 8, "re": [[1]]}, "error:"),
    ("metrics", {"dim": 8, "re": [[1]]}, "error:"),
    ("ppt", [[1, 0], [0, 0]], "error:"),
    ("ppt", {"dim": 2, "re": [["a", 0], [0, 0]], "im": [[0, 0], [0, 0]]}, "error:"),
    ("ppt", {"dim": None, "re": [[1]], "im": [[0]]}, "error:"),
    ("tomo", [{k: v for k, v in _RECORD.items() if k != "detect"}],
     "dataset record lacks key 'detect'"),
    ("tomo", {"records": [_RECORD]}, "dataset JSON must be an array of records"),
    ("fit", [], "empty dataset"),
    ("tomo", [dict(_RECORD, line="22")], "unknown line/quadrature ('22', 'x')"),
    ("tomo", [dict(_RECORD, setting="Y1E2")], "bad setting id 'Y1E2'"),
    ("tomo", [dict(_RECORD, detect="N")], "bad detected spin 'N'"),
    ("tomo", [dict(_RECORD, quad="z")], "unknown line/quadrature ('00', 'z')"),
    ("tomo", [dict(_RECORD, value=None)], _NUMERIC),
    ("tomo", [dict(_RECORD, sigma="wide")], _NUMERIC),
    ("tomo", ["Y1E2E3"], _NUMERIC),
    ("tomo", [dict(_RECORD, value=0.5, sigma=5e-324)], "record sigma 5e-324"),
    ("tomo", _FULL, "record sigma 1e+300"),
    ("tomo", _HUGE_VALUE, "record value 1.7e+308 must be finite and within 8e+150"),
    ("fit", _HEAVY, "record values up to 1e+150"),
    ("ppt", _DEEP, "error:"),
    ("tomo", _DEEP, "JSON nested too deeply"),
    ("metrics", _DEEP, "error:"),
    ("ppt", core.matrix_to_json(_NOT_HERMITIAN), "error:"),
    ("metrics", core.matrix_to_json(_NOT_HERMITIAN), "error:"),
    ("ppt", core.matrix_to_json(np.eye(8) / 4), "error:"),
    ("ppt", _HUGE, _BEYOND_BOUND),
    ("simulate", _HUGE, _BEYOND_BOUND),
    ("metrics", _HUGE, _BEYOND_BOUND),
    ("metrics-reference", _HUGE, _BEYOND_BOUND),
    ("metrics-reference", {"dim": 8, "re": [[1]]}, "matrix JSON lacks key 'im'"),
    ("witness", _HUGE, _BEYOND_BOUND),
    ("optimize", "0", "--restarts 0 must be at least 1"),
    ("optimize", "-3", "--restarts -3 must be at least 1"),
    ("optimize", "10000000000000", "--restarts 10000000000000 must be at most 100000"),
    ("optimize", str(witnesses.MAX_RESTARTS + 1),
     f"--restarts {witnesses.MAX_RESTARTS + 1} must be at most {witnesses.MAX_RESTARTS}"),
    ("argv", ["report", "--seed", "-1"], "--seed -1"),
    ("argv", ["tomo", "simulate", "--state", "{rho}", "--seed", "-1"], "--seed -1"),
    ("argv", ["tomo", "simulate", "--state", "{rho}", "--sigma", "0", "--seed", "-1"],
     "--seed -1"),
    ("argv", ["witness", "optimize", "--seed", "-1", "--restarts", "2", "--range", "0.3:0.31"],
     "--seed -1"),
    ("argv", ["verify", "--seed", "-1"], "--seed -1"),
    ("argv", ["state", "--a1", "0.3"], "give all of --a1/--a2/--a3"),
    ("argv", ["state", "--a", "0.5", "--a1", "0.2", "--a2", "0.3", "--a3", "0.4"],
     "give either --a or --a1/--a2/--a3, not both"),
    ("argv", ["witness", "eval", "--state", "{rho}", "--a", "0.9",
              "--a1", "0.346", "--a2", "0.346", "--a3", "0.346"],
     "give either --a or --a1/--a2/--a3, not both"),
    # a search range beyond the state parameters' is refused as the range, not
    # at the first grid point it would evaluate
    ("argv", ["witness", "optimize", "--range", "0.5:1e151"],
     "bad search range (0.5, 1e+151): need 1e-150 <= lo < hi <= 1e+150"),
    ("argv", ["witness", "optimize", "--range", "1e-300:1e-299"],
     "bad search range (1e-300, 1e-299)"),
    ("argv", ["witness", "optimize", "--range", "1e200:1e201"],
     "bad search range (1e+200, 1e+201)"),
    # a subnormal --p: 1/p overflows, and sigma * p would underflow to exact data
    ("argv", ["report", "--p", "5e-324"], "--p 5e-324"),
    ("argv", ["report", "--sigma", "0", "--p", "1e-310"], "--p 1e-310"),
    ("argv", ["report", "--sigma", "1e-300", "--p", "1e-100"], "--sigma 1e-300 times --p 1e-100"),
    ("ppt", dict(_MIXED, dim=8.5), "matrix JSON dim 8.5 must be 8"),
    ("ppt", dict(_MIXED, dim="8"), "matrix JSON dim '8' must be 8"),
    ("ppt", dict(_MIXED, re=[[str(x) for x in row] for row in _MIXED["re"]]), _ENTRIES),
    ("ppt", dict(_MIXED, im=[[False] * 8] * 8), _ENTRIES),
    ("ppt", dict(_MIXED, re=[[10 ** 400] * 8] + _MIXED["re"][1:]), _ENTRIES),
    ("tomo", [dict(_RECORD, value="1.5")], _NUMERIC),
    ("tomo", [dict(_RECORD, sigma=True)], _NUMERIC),
    ("tomo", [dict(_RECORD, value=10 ** 400)], _NUMERIC),
], ids=["ppt-missing-im", "metrics-missing-im", "ppt-list", "ppt-non-numeric",
        "ppt-null-dim", "tomo-missing-detect", "tomo-object", "tomo-empty",
        "tomo-bad-line", "tomo-bad-setting", "tomo-bad-detect", "tomo-bad-quad",
        "tomo-null-value", "tomo-text-sigma", "tomo-non-object-record",
        "tomo-tiny-sigma", "tomo-huge-sigma", "tomo-huge-value", "tomo-heavy-closed-form",
        "ppt-deep", "tomo-deep", "metrics-deep", "ppt-not-hermitian",
        "metrics-not-hermitian", "ppt-trace-2", "ppt-huge", "simulate-huge", "metrics-huge",
        "metrics-reference-huge", "metrics-reference-missing-im", "witness-eval-huge",
        "optimize-zero-restarts",
        "optimize-negative-restarts", "optimize-huge-restarts",
        "optimize-restarts-over-cap", "report-negative-seed", "tomo-negative-seed",
        "tomo-exact-negative-seed", "optimize-negative-seed", "verify-negative-seed",
        "state-partial-triple", "state-a-and-triple", "witness-eval-a-and-triple",
        "optimize-range-above-parameters", "optimize-range-below-parameters",
        "optimize-range-far-above-parameters",
        "report-subnormal-p", "report-exact-subnormal-p", "report-sigma-underflow",
        "ppt-fractional-dim", "ppt-text-dim", "ppt-text-entries", "ppt-false-entries",
        "ppt-huge-int-entry", "tomo-text-value", "tomo-true-sigma", "tomo-huge-int-value"])
def test_malformed_input_exits_2(tmp_path, capsys, command, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    rho = tmp_path / "rho.json"
    run(["state", "--out", str(rho)])
    if command == "argv":   # the payload is the command line itself
        argv = [arg.format(rho=rho) for arg in payload]
    else:
        argv = {"ppt": ["ppt", "--state", str(bad)],
                "metrics": ["metrics", "--state", str(bad), "--reference", str(rho)],
                "metrics-reference": ["metrics", "--state", str(rho), "--reference", str(bad)],
                "simulate": ["tomo", "simulate", "--state", str(bad)],
                "witness": ["witness", "eval", "--state", str(bad)],
                "tomo": ["tomo", "reconstruct", "--data", str(bad)],
                "fit": ["tomo", "reconstruct", "--data", str(bad)],
                "optimize": ["witness", "optimize", "--restarts", str(payload)]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err
    # a loader's refusal names the file it read, and only that one; so does the
    # fit's refusal of a file that loaded ("fit" rows)
    if command not in ("argv", "optimize"):
        assert f"error: {bad}: " in err and str(rho) not in err


@pytest.mark.parametrize("state, reference, message", [
    # loose wrapping admits both; the product sqrt(R) S sqrt(R) is diag(-3, 0, ...)
    (np.diag([-1.0, 2, 0, 0, 0, 0, 0, 0]), np.diag([3.0, -2, 0, 0, 0, 0, 0, 0]),
     "matrix not PSD: eigenvalue -3.000e+00"),
    (np.diag([6.0, -5, 0, 0, 0, 0, 0, 0]), np.diag([6.0, -5, 0, 0, 0, 0, 0, 0]),
     "fidelity 5.999999999999999 exceeds 1"),
], ids=["inner-product-not-psd", "fidelity-above-one"])
def test_metrics_of_matrices_far_from_states_exits_2(tmp_path, capsys, state, reference,
                                                      message):
    paths = []
    for name, m in (("state", state), ("reference", reference)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(core.matrix_to_json(m)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["metrics", "--state", str(paths[0]), "--reference", str(paths[1])]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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
    (["witness", "optimize", "--range", "0.5"], "--range must be LO:HI, got '0.5'"),
], ids=["prepare-nan-a", "state-inf-a", "report-inf-a", "report-nan-eps",
        "optimize-inf-range", "optimize-range-without-colon"])
def test_non_finite_parameter_exits_2(tmp_path, capsys, argv, name):
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*argv, "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def _family_argv(command, a, rho):
    return {"state": ["state", "--a", a],
            "witness-eval": ["witness", "eval", "--a", a, "--state", str(rho)],
            "report": ["report", "--a", a],
            "prepare": ["prepare", "--a", a],
            "prepare-given-p": ["prepare", "--a", a, "--p", "1e-5"]}[command]


_FAMILY_COMMANDS = ["state", "witness-eval", "report", "prepare", "prepare-given-p"]


@pytest.mark.parametrize("a", ["5e-324", "1e-308", "1e200"])
@pytest.mark.parametrize("command", _FAMILY_COMMANDS)
def test_family_parameter_outside_the_range_exits_2(tmp_path, capsys, command, a):
    # a state or witness that cannot be formed in floating point is refused
    # up front, naming the triple, and raises no warning on the way
    rho = tmp_path / "rho.json"
    run(["state", "--out", str(rho)])
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*_family_argv(command, a, rho), "--out", str(out)]) == 2
    assert "a1, a2, a3 must lie within [1e-150, 1e+150]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("a", ["1e-150", "1e150"])
@pytest.mark.parametrize("command", _FAMILY_COMMANDS)
def test_family_parameter_at_the_range_edges_runs(tmp_path, capsys, command, a):
    rho = tmp_path / "rho.json"
    run(["state", "--out", str(rho)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*_family_argv(command, a, rho), "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
    assert code != 2 or "a=" in err


# KAPPA_RANGE is the CLI's contract for --kappa: every value outside it exits 2 naming kappa
@pytest.mark.parametrize("p", [[], ["--p", "1e-5"]], ids=["matched-p", "given-p"])
@pytest.mark.parametrize("kappa", ["0", "-1", "nan", "inf", "1",
                                   "5e-324", "1e-300", "1e-16", "1e-8", "9.9e-8"])
def test_prepare_bad_kappa_names_kappa(tmp_path, capsys, kappa, p):
    out = tmp_path / "out.json"
    assert run(["prepare", "--kappa", kappa, *p, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"kappa={float(kappa)} outside [1e-07, 0.001]" in err and "fraction p=" not in err
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["1e-7", "1e-3"])
def test_prepare_kappa_at_the_range_ends_runs(tmp_path, kappa):
    out = tmp_path / "out.json"
    assert run(["prepare", "--kappa", kappa, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["temporal_weights"]["residual"] <= 1e-15


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
    # cli imports every module of the package; the package itself imports none
    src = Path(pseudobound.__file__).resolve().parents[1]
    code = ("import sys, pseudobound.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "[]"


def test_package_exports_only_its_modules():
    # each public name has one import path, its module: core.is_ppt, not pseudobound.is_ppt
    public = [name for name in dir(pseudobound) if not name.startswith("_")]
    assert public, "the test process has imported every module"
    for name in public:
        value = getattr(pseudobound, name)
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"pseudobound.{name}"


def test_checks_import_loads_no_cli():
    # the registry reaches the report through pipeline, not through the front end
    src = Path(pseudobound.__file__).resolve().parents[1]
    code = "import sys, pseudobound.checks; print('pseudobound.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "False"
    assert cli.build_report is pipeline.build_report and cli.RunConfig is pipeline.RunConfig


# one call per subcommand, a usage error, help, a malformed file and a negative
# seed; {out} is the call's output file, the other names are prepared inputs
_CORPUS = [
    ["state", "--out", "{out}"],
    ["state", "--a", "0.3", "--p", "2.3e-5", "--out", "{out}"],
    ["state", "--a1", "0.2", "--a2", "0.3", "--a3", "0.4"],
    ["ppt", "--state", "{rho}", "--tolerance", "1e-6", "--out", "{out}"],
    ["ppt", "--state", "{rho}"],
    ["witness", "eval", "--a", "0.3", "--eps", "0.1", "--state", "{rho}", "--out", "{out}"],
    ["witness", "optimize", "--range", "0.3:0.4", "--restarts", "3", "--seed", "1",
     "--out", "{out}"],
    ["prepare", "--out", "{out}"],
    ["prepare", "--a", "0.3", "--p", "1e-5", "--kappa", "5e-5", "--out", "{out}"],
    ["tomo", "simulate", "--state", "{ps}", "--sigma", "1e-7", "--seed", "3", "--out", "{out}"],
    ["tomo", "reconstruct", "--data", "{data}", "--project", "--out", "{out}"],
    ["tomo", "reconstruct", "--data", "{data}", "--out", "{out}"],
    ["metrics", "--state", "{rho}", "--reference", "{ps}", "--out", "{out}"],
    ["report", "--sigma", "0.02", "--seed", "4", "--out", "{out}"],
    ["report"],
    ["verify", "--seed", "1"],
    ["tomo", "simulate", "--sigma", "1e-3"],
    ["--help"],
    ["witness", "optimize", "--help"],
    ["ppt", "--state", "{bad}"],
    ["report", "--seed", "-1"],
]


def _corpus_call(argv, paths, capsys):
    """Exit code, stdout, stderr and output file bytes of one ``main`` call."""
    out = paths["out"]
    try:
        code = run([arg.format(**paths) for arg in argv])
    except SystemExit as exc:   # argparse exits on usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, captured.out, captured.err, written


def test_a_reused_parser_leaks_no_state(tmp_path, monkeypatch, capsys):
    paths = {name: tmp_path / f"{name}.json" for name in ("out", "rho", "ps", "data", "bad")}
    run(["state", "--out", str(paths["rho"])])
    run(["state", "--p", "2.3e-5", "--out", str(paths["ps"])])
    run(["tomo", "simulate", "--state", str(paths["ps"]), "--sigma", "1e-7",
         "--out", str(paths["data"])])
    paths["bad"].write_text("not json{")
    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS[:3])   # the parser is under test
    capsys.readouterr()
    fresh = []
    for argv in _CORPUS:
        cli.make_parser.cache_clear()
        fresh.append(_corpus_call(argv, paths, capsys))
    assert {result[0] for result in fresh} == {0, 1, 2}
    order = [*range(len(_CORPUS)), *reversed(range(len(_CORPUS)))]
    for k in order:
        assert _corpus_call(_CORPUS[k], paths, capsys) == fresh[k], _CORPUS[k]


def test_main_builds_one_parser_per_process(tmp_path):
    # counted in a fresh interpreter: nothing at import, one tree over 20 calls
    src = Path(pseudobound.__file__).resolve().parents[1]
    code = ("import argparse, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from pseudobound import cli\n"
            "counts = [len(built)]\n"
            "for k in range(20):\n"
            "    cli.main(['state', '--a', str(0.1 + k / 100), '--out', sys.argv[1]])\n"
            "    counts.append(len(built))\n"
            "print(*counts)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "rho.json")],
                         capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(src)}, timeout=60)
    imported, one_tree, *later = map(int, out.stdout.split())
    assert imported == 0
    assert one_tree >= 13   # the root, the eight commands and the four second-level ones
    assert later == [one_tree] * 19
