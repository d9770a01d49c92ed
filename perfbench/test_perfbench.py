"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q -p no:cacheprovider

The exact-count test runs each workload's count window twice (about 25 s,
most of it two witness optimisations).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pseudobound import core, tomography  # noqa: E402

EXACT_COUNTS = ("tomography.measure.calls", "core.DensityOperator.count",
                "witnesses.min_over_product_states.calls", "witnesses.restarts")


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench_out" / "test-work"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _counts(name: str, workdir: Path, seed: int) -> dict:
    tracer = tracing.Tracer()
    rec, _units, count_ops, *_ = worker.measure(workloads.make(name, workdir), seed, 0.0, tracer)
    layers = worker.per_layer(tracer, rec, count_ops)
    return {key: layers[key] for key in EXACT_COUNTS}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_exact_counts_repeat_for_a_seed(name, workdir):
    first = _counts(name, workdir, seed=5)
    assert first == _counts(name, workdir, seed=5)
    if name == "report_stream":
        assert first["tomography.measure.calls"] == 21
        assert first["core.DensityOperator.count"] == 6
    if name == "witness_optimize":
        assert first["witnesses.min_over_product_states.calls"] == 50
        assert first["witnesses.restarts"] == 50 * 250


def test_end_to_end_times_scale_with_host_speed():
    raw = worker.end_to_end([0.002, 0.004, 0.006], units=1)
    slow_host = worker.end_to_end([0.002, 0.004, 0.006], units=1, factors=[0.5] * 3)
    assert raw["op_p50_ms"] == pytest.approx(4.0)
    assert slow_host["op_p50_ms"] == pytest.approx(2.0)
    assert slow_host["ops_per_s"] == pytest.approx(2 * raw["ops_per_s"])
    assert worker.speed([0.002, 0.003, 0.004]) == pytest.approx(worker.KERNEL_REFERENCE_S / 0.003)
    assert raw["op_p90_ms"] == raw["op_p50_ms"]   # too few operations for a tail
    many = worker.end_to_end([0.001 * (i % 10 + 1) for i in range(200)], units=1)
    assert many["op_p90_ms"] == pytest.approx(9.1)
    # half the span at reference speed, half at half of it
    mixed = [0.001] * worker.SAMPLE_WINDOW + [0.002] * worker.SAMPLE_WINDOW
    assert worker.mixed_speed(mixed) == pytest.approx(0.75)


def test_sampling_inside_a_long_operation_is_left_out_of_its_time():
    def busy():
        while time.perf_counter() < begin + 0.6:
            pass

    sampler = worker.Sampler()
    rec = workloads.Recorder(paused=lambda: sampler.spent)
    begin = time.perf_counter()
    sampler.arm()
    try:
        rec.call(busy)
    finally:
        samples = sampler.disarm()
    wall = time.perf_counter() - begin
    assert len(samples) >= 3 and sampler.spent >= sum(samples)
    assert rec.untraced[0] + sampler.spent == pytest.approx(wall, abs=0.01)


def test_runner_and_workloads_agree_on_names():
    assert run.WORKLOADS == workloads.NAMES


def test_tracer_restores_every_binding():
    originals = (tomography.measure, core.is_ppt, vars(core.DensityOperator)["__post_init__"],
                 vars(tomography.TomographyDataset)["from_json"])
    tracer = tracing.Tracer()
    tracer.install()
    assert tomography.measure is not originals[0] and core.is_ppt is not originals[1]
    tracer.uninstall()
    assert (tomography.measure, core.is_ppt, vars(core.DensityOperator)["__post_init__"],
            vars(tomography.TomographyDataset)["from_json"]) == originals
    assert tracer.missing == []


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["op", 0.0, 10.0, -1, 0, 0.0],
                    ["a", 1.0, 7.0, 0, 0, 0.0],
                    ["b", 2.0, 5.0, 1, 0, 3.0],
                    ["op", 10.0, 12.0, -1, 1, 0.0],
                    ["b", 10.5, 11.5, 3, 1, 4.0]]
    totals = tracer.layer_totals(count_ops=1)
    assert totals["op"]["self_s"] == pytest.approx(10.0 - 6.0 + 2.0 - 1.0)
    assert totals["a"]["self_s"] == pytest.approx(3.0)
    assert totals["b"]["inclusive_s"] == pytest.approx(4.0)
    assert (totals["b"]["calls"], totals["b"]["count_calls"], totals["b"]["count_work"]) \
        == (2, 1, 3.0)


def test_compare_reports_each_difference():
    reference = {"witness": {"expectation": -0.07, "detected": True}, "codes": [0, 1]}
    assert workloads.compare(reference, {**reference, "extra": 1}, {}) == []
    near = {"witness": {"expectation": -0.07 * (1 + 1e-9), "detected": True}, "codes": [0, 1]}
    assert workloads.compare(reference, near, {}) == []
    off = {"witness": {"expectation": -0.06, "detected": False}, "codes": [0]}
    assert len(workloads.compare(reference, off, {})) == 3
    assert workloads.compare({"a": 0.346}, {"a": 0.347}, {"a": (0.0, 2e-3)}) == []


def test_reference_units_match_at_this_commit(workdir):
    reference = json.loads((HERE / "reference.json").read_text())
    for name in ("report_stream", "cli_session"):
        workload = workloads.make(name, workdir)
        units = workload.units(workloads.REFERENCE_SEED)
        for expected in reference[name]:
            got = json.loads(json.dumps(workload.run(next(units), workloads.Recorder())))
            assert workloads.compare(expected, got, workload.tolerance) == []


def test_changed_output_fails_the_check(workdir):
    workload = workloads.make("report_stream", workdir)
    digest = workload.run(next(workload.units(workloads.REFERENCE_SEED)), workloads.Recorder())
    digest["witness"]["expectation"] += 1e-3
    reference = json.loads((HERE / "reference.json").read_text())["report_stream"][0]
    with pytest.raises(workloads.Mismatch, match="witness.expectation"):
        worker._check(workload, digest, reference, "reference unit 0")


def test_timed_sessions_never_feed_the_known_defect(workdir):
    workload = workloads.make("cli_session", workdir)
    units = workload.units(7)
    kinds = {next(units)["malformed"] for _ in range(10 * workloads.MALFORMED_EVERY)}
    assert kinds == {None, *workloads.TIMED_MALFORMED}
    assert workloads.KNOWN_DEFECT not in kinds


def test_malformed_sessions_exit_2(workdir):
    workload = workloads.make("cli_session", workdir)
    for kind in workloads.TIMED_MALFORMED:
        rec = workloads.Recorder()
        digest = workload.run({"a": 0.3, "malformed": kind}, rec)
        assert rec.attempted == 4
        assert digest["codes"] == {"state": 0, "ppt --state": 2,
                                   "tomo reconstruct --data": 2, "metrics --state": 2}


def test_missing_key_probe_names_each_loader(workdir):
    outcomes = workloads.make("cli_session", workdir).probe_known_defect()
    # when the benchmark was added all three loaders raised KeyError; once
    # they exit 2 instead, the probe reports that and the run still passes
    assert set(outcomes) == {"ppt --state <missing-key>",
                             "tomo reconstruct --data <missing-key>",
                             "metrics --state <missing-key>"}
    assert set(outcomes.values()) <= {"KeyError", 2}


def test_refuses_to_run_without_the_source_tree():
    bare = ROOT / ".perfbench_out" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                              "report_stream", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=bare, capture_output=True,
                             text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
