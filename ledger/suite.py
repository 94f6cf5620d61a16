"""All five workloads, each in a fresh interpreter, as one ledger document."""

from __future__ import annotations

import json
import subprocess
import sys

from . import env, spec


def run_suite(declared: spec.Spec, seed: int, seconds: float, trace: int, quick: bool,
              out_path) -> tuple[dict, bool]:
    """All five workloads, each in a fresh interpreter; returns the ledger
    document and whether every workload verified."""
    kind = "trace" if trace else "e2e"
    doc = {"schema": spec.SCHEMA, "kind": kind, "seed": seed, "quick": quick, "workloads": {}}
    ok = True
    for name in declared.workloads:
        cmd = env.child_command(
            "run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), *(["--quick"] if quick else []),
        )
        print(f"ledger: {name} ({kind}) ...", file=sys.stderr, flush=True)
        done = subprocess.run(cmd, cwd=env.ROOT, stdout=subprocess.PIPE, text=True)
        child = env.OUT / f"{name}-{kind}.json"
        if done.returncode not in (0, 1) or not child.is_file():
            sys.exit(f"ledger: workload {name} did not finish (exit {done.returncode})")
        record = json.loads(child.read_text())
        doc.setdefault("header", record.pop("header"))
        doc["workloads"][name] = record
        ok &= record["correct"]
    path = out_path or env.OUT / f"ledger-{kind}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1))
    print(f"ledger: wrote {path}", file=sys.stderr)
    return doc, ok


def print_suite(doc: dict) -> None:
    names = list(doc["workloads"])
    print("# " + json.dumps(doc["header"]))
    print(f"{'metric':42s} {'unit':8s} " + " ".join(f"{n:>14s}" for n in names))
    first = doc["workloads"][names[0]]["metrics"]
    for metric, cell in first.items():
        row = " ".join(f"{doc['workloads'][n]['metrics'][metric]['value']:14.6g}" for n in names)
        print(f"{metric:42s} {cell['unit']:8s} {row}")
    shares = " ".join(f"{doc['workloads'][n]['failed'] / doc['workloads'][n]['attempted']:14.6g}" for n in names)
    print(f"{'failed_share':42s} {'share':8s} {shares}")
