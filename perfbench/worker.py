"""One measured process of the benchmark; started by run.py, not by hand.

Protocol on stdout: a ``ready`` line as soon as the first (cold)
operation has completed and passed its reference check, a ``speed <f>
<s>`` line with the host-speed factor measured during or right after it
and the seconds of calibration inside it, then, unless
``--setup-only`` is given, a ``result {...}`` line once the timed loop
is over.  A failed check prints the reason on stderr and exits 1.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pseudobound  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _START

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PINNING = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")

# Host speed: timings are scaled to a host on which the calibration kernel
# takes KERNEL_REFERENCE_S.  The kernel is fixed numpy and Python work of
# the package's kind (8x8 Hermitian eigenproblems, Kronecker products,
# the product-state contraction, small loops) and never calls the package; it runs between units for
# about KERNEL_SHARE of a run, so a host that speeds up or slows down
# during or between runs moves both alike.  A unit that runs longer than
# SAMPLE_AFTER_S spans the host's changes of speed, which come within a
# second or so; the kernel also runs inside it every SAMPLE_EVERY_S (see
# Sampler), its factor comes from those samples alone (mixed_speed), and
# the bursts around it are capped at BURST_MAX_S.
KERNEL_REFERENCE_S = 1e-3
KERNEL_SHARE = 0.05
SAMPLE_AFTER_S = 0.25
SAMPLE_EVERY_S = 0.05
SAMPLE_WINDOW = 5
BURST_MAX_S = 0.01
_H = np.random.default_rng(0).standard_normal((8, 8))
_H = _H + _H.T
_V = np.array([0.6, 0.8])


# The 90th percentile needs ten operations above it; a run with fewer
# operations (witness_optimize has about 5) reports its median instead.
TAIL_MIN_OPS = 100


def kernel() -> float:
    begin = time.perf_counter()
    for _ in range(25):
        np.linalg.eigvalsh(_H)
        np.kron(_H[:2, :2], _H[:4, :4])
        np.einsum("ibcjef,b,c,e,f->ij", _H.reshape((2,) * 6), _V, _V, _V, _V)
        sum(i * i for i in range(20))
    return time.perf_counter() - begin


def calibrate(seconds: float) -> list[float]:
    """Kernel times over about ``seconds``, at least one."""
    samples = [kernel()]
    while sum(samples) < seconds:
        samples.append(kernel())
    return samples


def speed(samples: list[float]) -> float:
    """Factor that scales a time measured now to the reference host."""
    return KERNEL_REFERENCE_S / statistics.median(samples)


def mixed_speed(samples: list[float]) -> float:
    """Factor for a span that the samples cover at even intervals.

    The span may mix the host's regimes, so the factor is the mean over
    the span of the speed in short windows (a median each, which drops a
    sample that was itself interrupted), not the speed of one regime.
    """
    windows = range(0, len(samples), SAMPLE_WINDOW)
    return statistics.fmean(speed(samples[i:i + SAMPLE_WINDOW]) for i in windows)


class Sampler:
    """Runs the calibration kernel inside a long unit, from a SIGALRM timer.

    While armed, the kernel runs SAMPLE_AFTER_S after arming and every
    SAMPLE_EVERY_S after that, between two bytecodes of whatever is
    running.  ``spent`` accumulates the time the handler takes, which the
    recorder leaves out of the operation it interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.ticking = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self.ticking:   # a tick that came during a slow one is dropped
            return
        self.ticking = True
        begin = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - begin
        self.ticking = False

    def arm(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_AFTER_S, SAMPLE_EVERY_S)

    def disarm(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: "
                f"{blas.get('openblas configuration', '')}".strip(),
        "pinning": {k: os.environ[k] for k in PINNING if k in os.environ},
    }


def measure(workload, seed: int, seconds: float, tracer=None):
    """Closed loop, one client: the next unit starts when the last is checked.

    Untraced runs time every unit once.  Traced runs time every unit twice,
    untraced and then traced, so the paired difference is the tracing
    overhead on the same input.  The calibration kernel runs before the
    first unit and after every unit; each untraced operation gets the
    speed factor of the kernel times just before and after its unit, or,
    for an untraced unit longer than SAMPLE_AFTER_S, of those inside it,
    so the host's speed during that unit is what is scaled out.  No unit
    starts that would end after the deadline by the last unit's duration.
    """
    sampler = Sampler() if tracer is None else None
    rec = workloads.Recorder(tracer, (lambda: sampler.spent) if sampler else None)
    units = workload.units(seed)
    min_units = workload.count_units if tracer else 1
    passes = (False, True) if tracer else (False,)
    count_ops = None
    bursts = [calibrate(0.0)]
    factors: list[float] = []
    done = 0
    last = 0.0
    deadline = time.perf_counter() + seconds
    while done < min_units or time.perf_counter() + last <= deadline:
        unit = next(units)
        first = len(rec.untraced)
        inside: list[float] = []
        begin = time.perf_counter()
        for rec.tracing in passes:
            if rec.tracing:
                tracer.install()
            elif sampler:
                sampler.arm()
            try:
                workload.run(unit, rec)
            finally:
                if rec.tracing:
                    tracer.uninstall()
                elif sampler:
                    inside = sampler.disarm()
        last = time.perf_counter() - begin
        bursts.append(calibrate(min(KERNEL_SHARE * last, BURST_MAX_S)))
        factor = mixed_speed(inside) if inside else speed(bursts[-2] + bursts[-1])
        factors += [factor] * (len(rec.untraced) - first)
        bursts[-1] = inside + bursts[-1]
        done += 1
        if tracer is not None and done == min_units:
            count_ops = tracer.ops
    return rec, done, count_ops, factors, [t for b in bursts for t in b]


def end_to_end(latencies: list[float], units: int, factors: list[float] | None = None) -> dict:
    """Throughput and latency of the untraced operations, each time scaled by its factor."""
    lat = latencies if factors is None else [f * x for f, x in zip(factors, latencies)]
    busy = sum(lat)
    return {
        "ops_per_s": len(lat) / busy,
        "units_per_s": units / busy,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * (float(np.percentile(lat, 90)) if len(lat) >= TAIL_MIN_OPS
                            else statistics.median(lat)),
        "op_p99_ms": 1e3 * float(np.percentile(lat, 99)),
        "ops": len(lat),
    }


def per_layer(tracer, rec, count_ops: int) -> dict:
    totals = tracer.layer_totals(count_ops)
    op = totals[tracing.OP]
    zero = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "count_calls": 0,
            "count_work": 0.0}
    out = {}
    for module, attribute in tracing.TARGETS:
        name = tracing.span_name(module, attribute)
        t = totals.get(name, zero)
        out[f"{name}.self_ms"] = 1e3 * t["self_s"] / t["calls"] if t["calls"] else 0.0
        out[f"{name}.share"] = t["inclusive_s"] / op["inclusive_s"]

    def count(name: str, key: str = "count_calls") -> float:
        return totals.get(name, zero)[key] / count_ops

    minimiser = totals.get("witnesses.min_over_product_states", zero)
    out.update({
        "tomography.measure.calls": count("tomography.measure"),
        "core.DensityOperator.count": count("core.DensityOperator"),
        "witnesses.min_over_product_states.calls": count("witnesses.min_over_product_states"),
        "witnesses.restarts": count("witnesses.min_over_product_states", "count_work"),
        "witnesses.restarts_per_s": (
            sum(s[5] for s in tracer.spans if s[0] == "witnesses.min_over_product_states")
            / minimiser["inclusive_s"] if minimiser["inclusive_s"] else 0.0),
        "op.unattributed.share": op["self_s"] / op["inclusive_s"],
    })
    overhead = statistics.median(t - u for t, u in zip(rec.traced, rec.untraced))
    out["trace.overhead_ms"] = 1e3 * overhead
    out["trace.overhead_share"] = overhead / statistics.median(rec.untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


def _check(workload, digest, reference, what: str) -> None:
    diffs = workloads.compare(reference, json.loads(json.dumps(digest)),
                              workload.tolerance)
    if diffs:
        raise workloads.Mismatch(f"{what} differs from reference.json: "
                                 + "; ".join(diffs[:10]))


def _run(args, workdir: Path) -> int:
    if not Path(pseudobound.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pseudobound imported from {pseudobound.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, workdir)
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)[workload.name]
    gate = workload.units(workloads.REFERENCE_SEED)
    # the CLI's error messages for malformed inputs are expected; they
    # are checked through exit codes, so their text is dropped
    saved_stderr = sys.stderr
    try:
        sys.stderr = _Discard()
        # the first operation may take seconds (witness_optimize), so it is
        # sampled like a long unit; run.py leaves the sampling out of setup
        sampler = Sampler()
        begin = time.perf_counter()
        sampler.arm()
        try:
            first = workload.run(next(gate), workloads.Recorder(paused=lambda: sampler.spent))
        finally:
            inside = sampler.disarm()
        first_op_s = time.perf_counter() - begin - sampler.spent
        _check(workload, first, reference[0], "reference unit 0")
        print("ready", flush=True)
        print(f"speed {mixed_speed(inside) if inside else speed(calibrate(0.2))!r} {sampler.spent!r}", flush=True)
        if args.setup_only:
            return 0
        for i in range(1, workload.gate_units):
            _check(workload, workload.run(next(gate), workloads.Recorder()),
                   reference[i], f"reference unit {i}")
        known_defects = (workload.probe_known_defect()
                         if hasattr(workload, "probe_known_defect") else {})
        tracer = tracing.Tracer() if args.trace else None
        rec, units, count_ops, factors, kernel_s = measure(workload, args.seed, args.seconds,
                                                           tracer)
    except workloads.Mismatch as exc:
        print(f"correctness check failed: {exc}", file=saved_stderr)
        return 1
    finally:
        sys.stderr = saved_stderr

    result = {
        "import_ms": 1e3 * IMPORT_S,
        "first_op_ms": 1e3 * first_op_s,
        "units": units,
        "attempted": rec.attempted,
        "failed": 0,   # a timed operation that fails stops the run instead
        "known_defects": known_defects,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed": speed(kernel_s),
        "kernel_ms": 1e3 * statistics.median(kernel_s),
        "end_to_end": end_to_end(rec.untraced, units, factors),
        "end_to_end_raw": end_to_end(rec.untraced, units),
        "latencies_ms": [1e3 * x for x in rec.untraced],
        "environment": environment(),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, rec, count_ops)
        result["missing_targets"] = tracer.missing
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.json")
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
