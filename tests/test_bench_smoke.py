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


# Seed-1 counts of a traced pass.  Every undriven torque batch is one
# steady_state_moments call, which reads <S> straight from the solved
# coherence vectors: no steady_state_batch or steady_state_derivative_batch
# call is left in mechanics.  Each equilibrium's stability and slope comes
# from one steady_state_moments call with directions (a solve and its
# derivative).  Rows are solved together: a libration sweep scans all its
# rows in shared batches, one per widening round, polishes them in lockstep
# (each round replays every unfinished row's Brent run and evaluates the
# one new tilt of each in one batch) and takes the slopes at all bound
# roots in one derivative batch.  A branch sweep (equilibrium, rotation,
# trapped critical field) is solved the same way in waves: all its rows
# from the first guess, then only those whose warm start, the last bound
# root before them, changed, until none does (two waves for every recipe
# sweep); each row keeps its solved torques across the waves, so no tilt
# of a row is evaluated twice.  The susceptibility sweep is one
# steady_state_derivative_batch (the chi_perp of every field and the states
# the populations come from), the only one left on either workload.
# Equilibria and MDMR points share one stable-root search: 17 anchored
# tilts around the guess in one batch, widened 4x until a stable bracket
# appears (a low-field libration row with no trap widens to all 472 tilts
# of [-pi/2, pi]), then a Brent polish that stops at a rounding-level
# torque.  A wider window holds the one before, so each round evaluates
# only the tilts it adds.  A batch above 256 systems is solved in slices
# inside one steady-state call, which counts once.
# An MDMR scan is a branch sweep over its frequencies, solved in the same
# waves; a wave's tilts of all frequencies are one call of the torque
# kernel with the drive, solved in those same slices.  Torque and driven
# batches solve every class point at its in-plane field, and at phi = 0
# (every recipe and workload field lies along the tracked axis) class 3
# takes class 2's solve, so a four-class torque batch solves 3 class points
# per tilt; a slope batch still solves all 4, so no call count moves.  So mdmr.brentq counts
# replays: 545 runs for the 136 polished points (a lone row still
# evaluates its tilts inline).  A hysteresis pair keeps one torque memory
# per (Rabi rate, frequency) for both scans, so the down sweep re-solves
# neither the baseline nor, off a fold, any tilt of the up sweep, while
# mdmr.iterations still counts every requested evaluation, tilts already
# solved included.  A driven solve runs the private solve under
# steady_state_batch with the drive generators added per slice, so the
# steady_state_moments calls of mdmr_hysteresis are those of the
# microwave-off equilibria alone, and microwave_superoperator, the public
# composition of the drive, is not called.
# An mdmr_scan baseline is one equilibrium_angle solve (one
# steady_state_moments call with directions for its slope) shared by both
# scans of a pair; a zero-drive scan solves nothing past it.  The |0>-connected lines
# of the classes are solved at that baseline only, one stacked
# zero_connected_lines call per scan (10 single-class scans, 2 four-class
# scans and the zero-drive scan: 13), none per point.  A quadrature panel evaluates
# its 6 and 12 Gauss-Legendre nodes as one 18-tilt batch; a landscape
# integrates class 0 on one line for every azimuth (36 panels for the
# recipe) and classes 1-3 per azimuth (20 panels each).  The trapped
# critical field solves 24 + 5x3 equilibria: each refinement round follows
# the branch through its 3 new interior fields and reuses the end tilts.  A torque that
# moves at rounding level can cost a Brent search one more evaluation,
# hence 1% headroom; a batch split into single points or a lost
# vectorization costs far more.  magnetometry_readout solves no steady
# state, and each of its 104 inversions makes one bounded Gauss-Newton
# polish from the closed-form (theta, B); one 3-point batch gives the
# residuals and their Jacobian, 125 such evaluations in all.  Restarting
# more than one inversion exceeds the call bound.
BUDGETS = {
    "orientation_recipes": {"spincore.steady_state_moments": 287,
                            "spincore.steady_state_batch": 0,
                            "spincore.steady_state_batch.points": 0,
                            "spincore.steady_state_derivative_batch": 1,
                            "crystal.transverse_reference": 0},
    "mdmr_hysteresis": {"spincore.steady_state_moments": 79,
                        "spincore.steady_state_batch": 0,
                        "spincore.steady_state_batch.points": 0,
                        "mdmr.microwave_superoperator": 0,
                        "mdmr.iterations": 700,
                        "mdmr.brentq": 545,
                        "mdmr.zero_connected_lines": 13,
                        "spincore.steady_state_derivative_batch": 0,
                        "crystal.transverse_reference": 0},
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
