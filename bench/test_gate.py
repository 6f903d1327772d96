"""Self-test of the benchmark's correctness gate.

Each workload is run once with its planted defect; the run must report a
nonzero fail_ratio and exit with a nonzero status. Run from the checkout
root (takes about half a minute):

    python3 -m pytest bench/test_gate.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("bench", "run.py")]
WORKLOADS = ("report-ospB-2111", "relations-large", "user-basis-rational")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_defect_fails_the_run(workload):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--plant-defect"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0
    assert result["metrics"]["pass_ratio"]["value"] < 1
    assert "FAILED CHECK" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench")
    proc = subprocess.run(
        RUN + ["--workload", WORKLOADS[1], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
