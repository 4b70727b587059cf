"""Benchmark smoke test: one traced pass of every workload runs clean.

A pass that crashes (a missing package name while a workload is built, a
counter that ``json.dumps`` rejects, a fault in the tracer) prints no JSON
line, and the benchmark harness can then read nothing from the run.  Each
pass runs in its own interpreter, as the harness runs it; nothing is
written to disk.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_json_without_failures(workload):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(ROOT / "perfbench" / "pass_runner.py"),
           "--workload", workload, "--seed", "1", "--trace", "1",
           "--launched", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == {}
