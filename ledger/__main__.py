"""Command line of the ledger: ``run``, ``compare``, ``aa``.

``run --workload W --seed N --seconds S --trace 0|1`` measures one
workload in this process and prints, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--workload`` it runs all five,
each in a fresh interpreter, and writes one ledger document.
"""

from __future__ import annotations

import argparse
import json
import sys

from pathlib import Path

from . import env, spec
from .suite import print_suite, run_suite


def _one_workload(args, declared: spec.Spec) -> int:
    """Measure one workload here; the result line goes last on stdout."""
    env.prepare()
    import_s = env.import_program()
    from . import harness

    pace = harness.QUICK if args.quick else harness.FULL
    head = env.header(args.seed)
    print(f"# ledger {args.workload} trace={args.trace} quick={int(args.quick)} " + json.dumps(head))
    if args.trace:
        result = harness.traced(args.workload, args.seed, pace, import_s)
        metrics = declared.per_layer
    else:
        result = harness.measure(args.workload, args.seed, args.seconds, pace, import_s)
        metrics = declared.end_to_end
    if set(result["metrics"]) != set(metrics):
        odd = sorted(set(result["metrics"]) ^ set(metrics))
        sys.exit(f"ledger: emitted and declared metric names differ: {odd}")

    detail = result.pop("detail")
    absent = set(detail.get("absent", ()))
    for name in metrics:
        value = result["metrics"][name]
        mark = "  (absent)" if name in absent else ""
        print(f"{name:42s} {value:16.6g} {metrics[name].unit}{mark}")
    if not args.trace:
        print(f"{'failed_share':42s} {detail['failed_share']:16.6g} share"
              f"  ({result['failed']} of {result['attempted']} ops; "
              f"{detail['latency_samples']} latency samples, {detail['bursts']} bursts)")
    line = {
        **result,
        "metrics": {n: {"value": result["metrics"][n], "unit": metrics[n].unit} for n in metrics},
    }
    env.OUT.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    (env.OUT / f"{args.workload}-{kind}.json").write_text(
        json.dumps({**line, "header": head, "detail": detail}, indent=1)
    )
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    declared = spec.load()
    parser = argparse.ArgumentParser(prog="python3 -m ledger", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", choices=list(declared.workloads))
    run.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=declared.run_seconds,
                     help="length of the timed phase of each workload")
    run.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                     help="1: spans, layer probes and per-layer metrics instead of end-to-end ones")
    run.add_argument("--quick", action="store_true", help="shortest run that emits every metric")
    run.add_argument("--out", type=Path, help="where the all-workload ledger document goes")

    cold = sub.add_parser("cold", help="(internal) one cold start, printed as JSON")
    cold.add_argument("--workload", required=True, choices=list(declared.workloads))
    cold.add_argument("--seed", type=int, required=True)

    cmp_ = sub.add_parser("compare", help="apply each metric's bound to two ledger documents")
    cmp_.add_argument("baseline", type=Path)
    cmp_.add_argument("candidate", type=Path)

    aa = sub.add_parser("aa", help="run the suite twice on this checkout; the two runs must agree")
    aa.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    aa.add_argument("--quick", action="store_true",
                    help="short runs: only failures and exact metrics decide, timings are shown")

    args = parser.parse_args(argv)
    if args.command == "run" and args.workload:
        return _one_workload(args, declared)
    if args.command == "run":
        env.require_program()
        doc, ok = run_suite(declared, args.seed, args.seconds, args.trace, args.quick, args.out)
        print_suite(doc)
        return 0 if ok else 1
    if args.command == "cold":
        env.prepare()
        env.prefault()
        import_s = env.import_program()
        from . import harness

        wl, segments, ok = harness.cold_start(args.workload, args.seed, import_s)
        wl.close()
        print(json.dumps({**segments, "ok": ok}))
        return 0
    from . import compare

    if args.command == "compare":
        return compare.compare_files(args.baseline, args.candidate, declared)
    return compare.aa(args.seed, args.quick, declared)


if __name__ == "__main__":
    sys.exit(main())
