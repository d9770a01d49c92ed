"""Benchmark of the pseudobound toolkit: three closed-loop workloads.

    python3 perfbench/run.py --workload report_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Every run first checks the reference units against
``perfbench/reference.json`` and every timed output against independent
checks; a failed check exits 1 without a result.  The last line of stdout
is the result as JSON: end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced run with ``--trace 1``.  End-to-end times are
scaled to a reference host speed measured with a calibration kernel
(worker.KERNEL_REFERENCE_S); the unscaled values are printed beside them.  See perfbench/README.md for
the workloads, the metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("report_stream", "witness_optimize", "cli_session")
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_SAMPLES = 3          # fresh interpreters per untraced run; median reported
TIME_LIMIT_S = 175.0       # a workload not done by then is killed and fails

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
# The names the workload definitions use for the same numbers.
ALIASES = {
    "report_stream": {"ops_per_s": "report_per_s", "op_p50_ms": "report_p50_ms",
                      "op_p99_ms": "report_p99_ms"},
    "witness_optimize": {"op_p50_ms": "optimize_s x 1000"},
    "cli_session": {"ops_per_s": "cli calls/s", "op_p50_ms": "cli_call_p50_ms",
                    "op_p99_ms": "cli_call_p99_ms", "units_per_s": "cli_session_per_s"},
}


class BenchmarkError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool, deadline: float) -> tuple[float, float, dict | None]:
    """Start a worker; return (seconds to its ready line, speed, result).

    The seconds leave out the calibration the worker ran before that line.
    """
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    ready_s = speed = result = None
    try:
        for line in proc.stdout:
            if line.strip() == "ready":
                ready_s = time.perf_counter() - begin
            elif line.startswith("speed "):
                speed, paused_s = map(float, line.split()[1:])
                ready_s -= paused_s
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or speed is None or (result is None and not setup_only):
        raise BenchmarkError(f"worker for {workload} exited with code {code}")
    return ready_s, speed, result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = [spawn(workload, seed, seconds, trace, True, deadline)[:2]
              for _ in range(SETUP_SAMPLES - 1 if not trace else 0)]
    *setup, result = spawn(workload, seed, seconds, trace, False, deadline)
    setups.append(tuple(setup))
    result["setup_s"] = statistics.median(raw * factor for raw, factor in setups)
    result["setup_raw_s"] = statistics.median(raw for raw, _ in setups)
    result["setup_samples_s"] = setups
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        per_layer = dict(result["per_layer"])
        per_layer["setup.import_ms"] = result["import_ms"]
        per_layer["setup.first_op_ms"] = result["first_op_ms"]
        return {name: {"value": value, "unit": _layer_unit(name)}
                for name, value in per_layer.items()}
    e2e = dict(result["end_to_end"], setup_s=result["setup_s"],
               peak_rss_mb=result["peak_rss_mb"])
    return {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}


def _layer_unit(name: str) -> str:
    for suffix, unit in ((".self_ms", "ms"), ("_ms", "ms"), (".share", "fraction"),
                         ("_share", "fraction"), (".restarts_per_s", "1/s")):
        if name.endswith(suffix):
            return unit
    return "count"


def describe(workload: str, result: dict, trace: int, seed: int, seconds: float) -> list[str]:
    env = result["environment"]
    lines = [f"# {workload}: closed loop, 1 client, seed {seed}, {seconds:g} s, "
             f"trace {trace}",
             f"# environment: {json.dumps(env)}"]
    e2e = result["end_to_end"]
    names = ALIASES[workload]
    for name, item in metrics_of(result, trace).items():
        alias = f"  ({names[name]})" if not trace and name in names else ""
        lines.append(f"#   {name:<48} {item['value']:.6g} {item['unit']}{alias}")
    if not trace:
        for name, unit in (("units_per_s", "1/s"), ("op_p99_ms", "ms")):
            alias = f"  ({names[name]})" if name in names else ""
            lines.append(f"#   {name:<48} {e2e[name]:.6g} {unit}{alias}  [not bounded]")
        raw = dict(result["end_to_end_raw"], setup_s=result["setup_raw_s"])
        lines.append("#   unscaled: " + ", ".join(
            f"{name} {raw[name]:.6g}" for name, _ in END_TO_END if name in raw)
            + f"; kernel {result['kernel_ms']:.4g} ms, speed factor {result['speed']:.4g}")
        lines.append(f"#   timed ops {e2e['ops']}, units {result['units']}; setup samples "
                     + ", ".join(f"{raw:.3f} s x {f:.3f}" for raw, f in result["setup_samples_s"]))
    rate = result["failed"] / result["attempted"]
    lines.append(f"#   {'error_rate':<48} {rate:.6g} ({result['failed']}/{result['attempted']})")
    for label, outcome in sorted(result["known_defects"].items()):
        lines.append(f"#   known defect, probed untimed: {label} -> {outcome}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pseudobound" / "__init__.py").is_file():
        print(f"no pseudobound source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        print("\n".join(describe(name, result, args.trace, args.seed, args.seconds)))
    if len(names) == 1:
        result = results[names[0]]
        summary = {"correct": True, "attempted": result["attempted"],
                   "failed": result["failed"], "metrics": metrics_of(result, args.trace)}
    else:
        summary = {name: {"correct": True, "attempted": r["attempted"], "failed": r["failed"],
                          "metrics": metrics_of(r, args.trace)} for name, r in results.items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
