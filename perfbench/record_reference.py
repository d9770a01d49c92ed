"""Write reference.json: the outputs of each workload's reference units.

    python3 perfbench/record_reference.py

Every benchmark run compares the units drawn from the reference seed
against this file before it measures anything.  Re-record only in a
change that means to alter outputs, and state the change and its size.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    workdir = ROOT / ".perfbench_out" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    out = {"_about": "outputs of the units drawn from workloads.REFERENCE_SEED; "
                     "written by perfbench/record_reference.py"}
    try:
        for name in workloads.NAMES:
            workload = workloads.make(name, workdir)
            units = workload.units(workloads.REFERENCE_SEED)
            out[name] = [json.loads(json.dumps(workload.run(next(units), workloads.Recorder())))
                         for _ in range(workload.gate_units)]
    finally:
        shutil.rmtree(workdir)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
