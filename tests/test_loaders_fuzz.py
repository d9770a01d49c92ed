"""Property tests of the JSON loaders behind the `--state` options and `tomo reconstruct`.

Whatever JSON a file holds, the CLI must answer with an exit code (0 all
good, 1 not detected, 2 bad input) and never raise.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pseudobound import cli, core

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)

# payloads shaped like the wire formats, so that the loaders get past the
# first type check and meet bad keys, shapes and values further in
matrices = st.fixed_dictionaries(
    {}, optional={"dim": json_values | st.sampled_from([1, 2, 4, 8]),
                  "re": json_values | st.sampled_from([[[0.5, 0.0], [0.0, 0.5]],
                                                       (np.eye(8) / 8).tolist()]),
                  "im": json_values | st.sampled_from([[[0.0, 0.0], [0.0, 0.0]],
                                                       np.zeros((8, 8)).tolist()])})
records = st.fixed_dictionaries(
    {}, optional={"setting": json_values | st.sampled_from(["Y1E2E3", "X1X2X3"]),
                  "detect": json_values | st.sampled_from(["C", "H", "F"]),
                  "line": json_values | st.sampled_from(["00", "01", "10", "11"]),
                  "quad": json_values | st.sampled_from(["x", "y"]),
                  "value": json_values | st.floats(-1, 1),
                  "sigma": json_values | st.floats(0, 1)})

FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _exit_code(tmp_path, payload, argv):
    # a fresh file per example: rewriting one file in place costs tens of
    # milliseconds per truncation on some filesystems
    fd, path = tempfile.mkstemp(suffix=".json", dir=tmp_path)
    with os.fdopen(fd, "w") as fh:
        json.dump(payload, fh)
    return cli.main([*argv, path])


@pytest.mark.parametrize("command", ["ppt", "witness-eval", "metrics"])
@FUZZ
@given(payload=json_values | matrices)
def test_state_loader_never_raises(tmp_path, command, payload):
    reference = tmp_path / "reference.json"
    if not reference.exists():
        reference.write_text(json.dumps(core.matrix_to_json(np.eye(8) / 8)))
    argv = {"ppt": ["ppt", "--state"],
            "witness-eval": ["witness", "eval", "--state"],
            "metrics": ["metrics", "--reference", str(reference), "--state"]}[command]
    assert _exit_code(tmp_path, payload, argv) in (0, 1, 2)


@FUZZ
@given(payload=json_values | st.lists(records, max_size=4))
@example(payload=[{"setting": "Y1E2E3", "detect": "C", "line": "00", "quad": "x",
                   "value": 0.5, "sigma": 5e-324}])   # 1/sigma overflows
def test_tomo_data_loader_never_raises(tmp_path, payload):
    assert _exit_code(tmp_path, payload, ["tomo", "reconstruct", "--data"]) in (0, 1, 2)
