"""One pass over a workload's work list, in a fresh interpreter.

    python3 perfbench/pass_runner.py --workload NAME --seed N --trace 0|1
        --launched T [--spans PATH]

``--launched`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, ``import
nvspinmech`` and building the workload.  The pass prints one JSON line:
set-up, import and pass wall times, peak resident set, per-operation
latency, failures and output digests, and with ``--trace 1`` the span
summary and counters.  Checks run after the timed region.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

_t = time.perf_counter()
import nvspinmech  # noqa: E402

IMPORT_S = time.perf_counter() - _t

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _hooks() -> dict:
    """Counters read from arguments and results at span boundaries."""

    def batch_points(args, result, counters):
        counters["spincore.steady_state_batch.points"] += len(args[1])

    def torque_evals(args, result, counters):
        counters["mechanics.equilibrium_angle.torque_evals"] += result.iterations

    def nfev(args, result, counters):
        counters["magnetometry.least_squares.nfev"] += result.nfev

    def scan_points(args, result, counters):
        counters["mdmr.points"] += len(result.points)
        counters["mdmr.iterations"] += sum(p.iterations for p in result.points)
        counters["mdmr.unconverged_points"] += sum(not p.converged for p in result.points)

    return {"spincore.steady_state_batch": batch_points,
            "mechanics.equilibrium_angle": torque_evals,
            "magnetometry.least_squares": nfev,
            "mdmr.mdmr_scan": scan_points}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--spans", default=None, help="write the spans here (.npz)")
    args = ap.parse_args()

    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.launched

    tracer = Tracer(nvspinmech, _hooks()) if args.trace else None
    if tracer:
        tracer.install()
    outputs, latency, errors = {}, [], {}
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        t = time.perf_counter()
        try:
            outputs[op.name] = op.run()
        except Exception:  # a failing operation is counted, the pass goes on
            errors[op.name] = [traceback.format_exc(limit=3)]
        latency.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = {}
    for op in ops:
        if op.name in errors:
            continue
        try:
            fails = op.check(outputs[op.name], outputs)
            digests[op.name] = op.digest(outputs[op.name])
        except Exception:  # a check that cannot read the output fails it
            fails = [traceback.format_exc(limit=3)]
        if fails:
            errors[op.name] = fails

    result = {"setup_s": setup_s, "import_s": IMPORT_S, "wall_s": wall_s,
              "rss_mb": rss_mb, "traced": bool(tracer),
              "ops": [op.name for op in ops], "latency_s": latency,
              "failed": errors, "digests": digests}
    if tracer:
        result["spans"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
