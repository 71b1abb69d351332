"""Importing the library leaves thread settings to the process that imports it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coca_tta

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = ("import json, os, coca_tta, coca_tta.cli; "
         f"print(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS!r}}}))")


@pytest.mark.parametrize("value", [None, "3"], ids=["unset", "set"])
def test_import_leaves_blas_thread_variables_alone(value):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if value is not None:
        env.update(dict.fromkeys(THREAD_VARS, value))
    # the fresh interpreter imports the package under test, not another copy
    env["PYTHONPATH"] = str(Path(coca_tta.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == dict.fromkeys(THREAD_VARS, value)
