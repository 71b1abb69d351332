"""The benchmark's own checks; run with ``python3 -m pytest perfbench``.

Wall times are noisy on a shared machine, so repeatability is checked on
the counts a traced run makes, which must not depend on machine speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# Ratios of integer counts: equal as floats however many repetitions ran.
EXACT = ["autodiff.nodes_per_step", "models.forward_calls", "models.pretrain_steps",
         "adaptation.guard_drop_frac"]


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    result = json.loads((ROOT / "perfbench" / "out"
                         / f"{workload}_seed{seed}_trace1.json").read_text())
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_runs_of_one_seed(workload):
    first, second = traced_run(workload, 3), traced_run(workload, 3)
    names = EXACT + [n for n in first["metrics"] if n.startswith("autodiff.op.")
                     and n.endswith(".calls")]
    for name in names:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["details"]["acc_combined"] == second["details"]["acc_combined"]
    assert first["config_digest"] == second["config_digest"]


def test_fails_without_sources():
    bare = ROOT / "perfbench" / "out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
