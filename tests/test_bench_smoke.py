"""Benchmark smoke test: one traced pass of every workload runs clean and
reports everything the harness reads.

A pass that crashes (a missing package name while a workload is built, a
counter that ``json.dumps`` rejects, a fault in the tracer) prints no JSON
line, and the benchmark harness can then read nothing from the run.  A
pass can also exit 0 and still lose a metric: a span that a per-layer
metric reads is gone from the program, or a counter is NaN (printed as
bare ``NaN``, which strict JSON rejects).  Each pass runs in its own
interpreter, as the harness runs it; nothing is written to disk.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _harness():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_per_layer_metrics_match_benchmark_declaration():
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(declared) == sorted(_harness().PER_LAYER)


@functools.cache
def _traced_pass(workload):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(ROOT / "perfbench" / "pass_runner.py"),
           "--workload", workload, "--seed", "1", "--trace", "1",
           "--launched", repr(time.monotonic())]
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1],
                      parse_constant=_reject_constant)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_json_without_failures(workload):
    result = _result(_traced_pass(workload))
    assert result["failed"] == {}
    spans = {arg[-1] for _, (kind, *arg) in _harness().PER_LAYER.values()
             if kind in ("calls", "self", "per_call")}
    missing = spans - result["spans"].keys()
    assert not missing, f"spans read by per-layer metrics are absent: {missing}"
    assert all(type(v) is int for v in result["counters"].values()), result["counters"]


# Seed-1 counts of a traced pass.  Each equilibrium's stability, each
# libration stiffness and each susceptibility point comes from one
# steady_state_derivative_batch call (a solve and its derivative), and the
# susceptibility sweep's populations from one steady_state_batch call.
# Equilibria and MDMR points share one stable-root search: 17 anchored
# tilts around the guess in one batch, widened 4x until a stable bracket
# appears (a low-field libration row with no trap scans all 472 tilts of
# [-pi/2, pi]), then a Brent polish that stops at a rounding-level torque.
# mdmr_scan solves its baseline once, with the drive off.  A torque that
# moves at rounding level can cost a Brent search one more evaluation,
# hence 1% headroom; a batch split into single points or a lost
# vectorization costs far more.  magnetometry_readout solves no steady
# state, and each of its 104 inversions makes one bounded Gauss-Newton
# polish from the closed-form (theta, B); one 3-point batch gives the
# residuals and their Jacobian, 125 such evaluations in all.  Restarting
# more than one inversion exceeds the call bound.
BUDGETS = {
    "orientation_recipes": {"spincore.steady_state_batch": 1273,
                            "spincore.steady_state_batch.points": 39118,
                            "spincore.steady_state_derivative_batch": 377},
    "mdmr_hysteresis": {"spincore.steady_state_batch": 829,
                        "spincore.steady_state_batch.points": 5843,
                        "mdmr.microwave_superoperator": 800,
                        "mdmr.iterations": 728,
                        "spincore.steady_state_derivative_batch": 5},
    "magnetometry_readout": {"spincore.steady_state_batch": 0,
                             "spincore.steady_state_derivative_batch": 0,
                             "magnetometry.least_squares": 104,
                             "magnetometry.least_squares.nfev": 125},
}
HEADROOM = 1.01


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_within_budget(workload):
    result = _result(_traced_pass(workload))
    for name, budget in BUDGETS[workload].items():
        count = (result["spans"][name]["calls"] if name in result["spans"]
                 else result["counters"].get(name, 0))
        assert count <= budget * HEADROOM, f"{workload}: {name} = {count} > {budget}"
