"""``compare`` two ledger documents; ``aa`` checks one checkout against itself."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from . import env, spec
from .suite import run_suite


def worsening(base: float, cand: float, better: str) -> float:
    """Relative change of *cand* against *base*, positive when worse."""
    change = (cand - base) / abs(base)
    return change if better == "lower" else -change


def classify(base: float, cand: float, metric: spec.Metric) -> str:
    """improved / unchanged / regressed by the metric's bound."""
    worse = worsening(base, cand, metric.better)
    if worse > metric.bound:
        return "regressed"
    if worse < -metric.bound:
        return "improved"
    return "unchanged"


def compare_docs(base: dict, cand: dict, declared: spec.Spec) -> list[tuple]:
    """Rows ``(workload, metric, base, candidate, worsening, verdict)`` for
    every bounded metric; ``unresolved`` when a side does not have it."""
    rows = []
    for workload in declared.workloads:
        a, b = base["workloads"].get(workload), cand["workloads"].get(workload)
        for name, metric in declared.end_to_end.items():
            if not a or not b or name not in a["metrics"] or name not in b["metrics"]:
                rows.append((workload, name, None, None, None, "unresolved"))
                continue
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            rows.append((workload, name, va, vb, worsening(va, vb, metric.better),
                         classify(va, vb, metric)))
        if not a or not b or a["failed"] or b["failed"]:
            rows.append((workload, "failed_share", a and a["failed"], b and b["failed"], None, "regressed"))
    return rows


def exact_differences(base: dict, cand: dict) -> list[tuple]:
    """``(workload, metric, base, candidate)`` for every exact metric that differs."""
    rows = []
    for workload, a in base["workloads"].items():
        b = cand["workloads"].get(workload, {"metrics": {}})
        for name in sorted(spec.EXACT):
            va = a["metrics"].get(name, {}).get("value")
            vb = b["metrics"].get(name, {}).get("value")
            if va != vb:
                rows.append((workload, name, va, vb))
    return rows


def _print_rows(rows) -> None:
    print(f"{'workload':14s} {'metric':18s} {'baseline':>14s} {'candidate':>14s} {'worse by':>9s}  verdict")
    for workload, name, va, vb, worse, verdict in rows:
        if va is None or worse is None:
            print(f"{workload:14s} {name:18s} {str(va):>14s} {str(vb):>14s} {'':>9s}  {verdict}")
        else:
            print(f"{workload:14s} {name:18s} {va:14.6g} {vb:14.6g} {worse:+9.1%}  {verdict}")


def compare_files(base_path: Path, cand_path: Path, declared: spec.Spec) -> int:
    base, cand = json.loads(base_path.read_text()), json.loads(cand_path.read_text())
    if base.get("kind") == "trace" or cand.get("kind") == "trace":
        diffs = exact_differences(base, cand)
        for row in diffs:
            print("exact metric differs: %s %s %r != %r" % row)
        print(f"{len(diffs)} exact per-layer metrics differ (per-layer metrics carry no bound)")
        return 1 if diffs else 0
    rows = compare_docs(base, cand, declared)
    _print_rows(rows)
    return 1 if any(r[-1] == "regressed" for r in rows) else 0


def aa(seed: int, quick: bool, declared: spec.Spec) -> int:
    """Two runs of the same checkout: every bounded metric within its bound,
    no failures, every exact per-layer metric identical.  ``--quick`` runs
    are too short for steady timings, so there only failures and exact
    metrics decide."""
    docs = {}
    for round_ in ("a", "b"):
        for trace in (0, 1):
            kind = "trace" if trace else "e2e"
            docs[round_, kind], _ = run_suite(
                declared, seed, 1 if quick else declared.run_seconds, trace, quick,
                env.OUT / f"aa-{round_}-{kind}.json",
            )
    rows = compare_docs(docs["a", "e2e"], docs["b", "e2e"], declared)
    _print_rows(rows)
    diffs = exact_differences(docs["a", "trace"], docs["b", "trace"])
    for row in diffs:
        print("exact metric differs: %s %s %r != %r" % row)
    disagree = [r for r in rows if r[-1] != "unchanged" and (not quick or r[1] == "failed_share")]
    verdict = "PASS" if not disagree and not diffs else "FAIL"
    print(f"aa: {verdict} ({len(disagree)} bounded metrics disagree, {len(diffs)} exact metrics differ)",
          file=sys.stderr)
    return 0 if verdict == "PASS" else 1
