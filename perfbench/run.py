"""Benchmark of nvspinmech: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of the workload, one process at a time, each in a fresh
interpreter with single-threaded BLAS importing ``src/`` of this checkout,
until ``--seconds`` have elapsed (at least one pass; with tracing at least
one untraced and one traced pass, alternating).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; progress and failure reasons go to standard error.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics (span counts and self times from the traced passes, whole-command
timings from the untraced ones, and the tracing overhead).  The records of
every pass, and the spans of each traced pass, are written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mdmr_hysteresis", "orientation_recipes", "magnetometry_readout")
PASS_TIMEOUT_S = 150.0

# per-layer metrics: name -> (unit, how it is read from the passes)
#   ("calls", span) / ("self", span): count / summed self time of a span
#   ("counter", key) / ("ratio", key, key): hook counters of the traced passes
#   ("per_call", key, span): a hook counter per call of a span
#   ("op_s", op names): summed latency of these operations (untraced passes)
PER_LAYER = {
    "setup.import_s": ("s", ("import",)),
    "trace.overhead_s": ("s", ("overhead",)),
    "spincore.steady_state.calls": ("count", ("calls", "spincore.steady_state")),
    "spincore.steady_state.self_s": ("s", ("self", "spincore.steady_state")),
    "spincore.steady_state_batch.calls": ("count", ("calls", "spincore.steady_state_batch")),
    "spincore.steady_state_batch.points_per_call": (
        "1", ("per_call", "spincore.steady_state_batch.points", "spincore.steady_state_batch")),
    "spincore.steady_state_batch.self_s": ("s", ("self", "spincore.steady_state_batch")),
    "mdmr.microwave_superoperator.calls": ("count", ("calls", "mdmr.microwave_superoperator")),
    "mdmr.microwave_superoperator.self_s": ("s", ("self", "mdmr.microwave_superoperator")),
    "mdmr.iterations_per_point": ("1", ("ratio", "mdmr.iterations", "mdmr.points")),
    "mdmr.unconverged_points": ("count", ("counter", "mdmr.unconverged_points")),
    "mdmr.brentq.calls": ("count", ("calls", "mdmr.brentq")),
    "mechanics.tilt_torque_batch.calls": ("count", ("calls", "mechanics.tilt_torque_batch")),
    "mechanics.tilt_torque_batch.self_s": ("s", ("self", "mechanics.tilt_torque_batch")),
    "mechanics.equilibrium_angle.torque_evals": (
        "count", ("counter", "mechanics.equilibrium_angle.torque_evals")),
    "mechanics.brentq.calls": ("count", ("calls", "mechanics.brentq")),
    "crystal.transverse_reference.calls": ("count", ("calls", "crystal.transverse_reference")),
    "magnetometry.transition_frequencies.calls": (
        "count", ("calls", "magnetometry.transition_frequencies")),
    "magnetometry.transition_frequencies.self_s": (
        "s", ("self", "magnetometry.transition_frequencies")),
    "magnetometry.least_squares.calls": ("count", ("calls", "magnetometry.least_squares")),
    "magnetometry.least_squares.nfev": ("count", ("counter", "magnetometry.least_squares.nfev")),
    "magnetometry.cold_invert_s": ("s", ("cold",)),
    "magnetometry.invert_ms_p90": ("ms", ("invert_p90",)),
    "cli.susceptibility_s": ("s", ("op_s", "susceptibility")),
    "cli.equilibrium_s": ("s", ("op_s", "equilibrium")),
    "cli.rotation_s": ("s", ("op_s", "rotation")),
    "cli.landscape_s": ("s", ("op_s", "landscape")),
    "cli.libration_s": ("s", ("op_s", "libration")),
    "cli.libration_pump_s": ("s", ("op_s", "libration_pump")),
    "cli.critical_field_s": ("s", ("op_s", "critical_field_free", "critical_field_trapped")),
    "cli.emit_s": ("s", ("self", "table.ResultTable.emit")),
}


def run_pass(workload: str, seed: int, traced: bool, spans: Path | None) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "pass_runner.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=PASS_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass of {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(passes: list) -> dict:
    # each operation's median over the passes, then the median over the work
    # list: a slow pass shifts the metric no more than its share of the passes
    op_ms = [1e3 * median(lat) for lat in zip(*(p["latency_s"] for p in passes))]
    return {
        "setup_s": (median(p["setup_s"] for p in passes), "s"),
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (median(p["rss_mb"] for p in passes), "MB"),
        "op_ms_p50": (median(op_ms), "ms"),
    }


def per_layer(passes: list, workload: str) -> tuple[dict, list]:
    """Per-layer metrics and the list of problems (counts that differ
    between traced passes)."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    calls = lambda p: {k: v["calls"] for k, v in p["spans"].items()}
    problems = ["counts differ between traced passes" for p in traced[1:]
                if calls(p) != calls(traced[0]) or p["counters"] != traced[0]["counters"]]
    spans, counters = traced[0]["spans"], traced[0]["counters"]
    readout = workload == "magnetometry_readout"

    def op_seconds(p, names):
        return sum(t for n, t in zip(p["ops"], p["latency_s"]) if n in names)

    out, absent = {}, []
    for name, (unit, (kind, *arg)) in PER_LAYER.items():
        if kind in ("calls", "self", "per_call") and arg[-1] not in spans:
            absent.append(name)
            continue
        if kind == "calls":
            value = spans[arg[0]]["calls"]
        elif kind == "self":
            value = median(p["spans"][arg[0]]["self_s"] for p in traced)
        elif kind == "counter":
            value = counters.get(arg[0], 0)
        elif kind in ("per_call", "ratio"):
            den = spans[arg[1]]["calls"] if kind == "per_call" else counters.get(arg[1], 0)
            value = counters.get(arg[0], 0) / den if den else 0.0
        elif kind == "op_s":
            value = median(op_seconds(p, arg) for p in plain)
        elif kind == "import":
            value = median(p["import_s"] for p in passes)
        elif kind == "overhead":
            value = median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in plain)
        elif kind == "cold":
            value = median(_cold_invert_s(p) for p in plain) if readout else 0.0
        elif kind == "invert_p90":
            lat_ms = [1e3 * t for p in plain for t in p["latency_s"]]
            value = quantiles(lat_ms, n=10)[-1] if readout else 0.0
        out[name] = (value, unit)
    if absent:
        print(f"absent from the program: {', '.join(absent)}", file=sys.stderr)
    return out, problems


def _cold_invert_s(p: dict) -> float:
    """Mean latency of the inversions that build a coarse table: the first
    of the default range and the twin case's own range."""
    lat = dict(zip(p["ops"], p["latency_s"]))
    first = next(n for n in p["ops"] if n.startswith("draw_"))
    return 0.5 * (lat[first] + lat["twin_180mT"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nvspinmech" / "__init__.py").is_file():
        print(f"no nvspinmech sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = HERE / "results"
    results.mkdir(exist_ok=True)

    passes = []
    start = time.monotonic()
    while (time.monotonic() - start < args.seconds
           or len(passes) < (2 if args.trace else 1)):
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans = (results / f"{args.workload}-seed{args.seed}-pass{len(passes)}.npz"
                 if traced else None)
        try:
            p = run_pass(args.workload, args.seed, traced, spans)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 3
        passes.append(p)
        print(f"pass {len(passes)}{' traced' if traced else ''}: wall {p['wall_s']:.3f} s, "
              f"setup {p['setup_s']:.3f} s, failed {len(p['failed'])}", file=sys.stderr)
        for name, reasons in p["failed"].items():
            print(f"  FAILED {name}: {reasons[0].strip().splitlines()[-1]}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.passes.json").write_text(json.dumps(passes))
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    # outputs must repeat exactly from pass to pass (same inputs, same code)
    correct = all(p["digests"] == passes[0]["digests"] for p in passes)
    if not correct:
        print("outputs differ between passes", file=sys.stderr)
    if args.trace:
        metrics, problems = per_layer(passes, args.workload)
        for msg in problems:
            print(msg, file=sys.stderr)
        correct = correct and not problems
    else:
        metrics = end_to_end(passes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
