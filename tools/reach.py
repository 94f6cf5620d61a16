"""Which functions of ``src/`` does any driver of the repository call?

Runs every driver — the examples, the benchmark suite, the ledger (one
``--quick`` run, then each workload traced) and every ``python -m repro``
section — in child interpreters that record each code object they
enter (``sys.setprofile`` plus ``threading.setprofile``, installed by a
generated ``sitecustomize``; the ledger's own child interpreters inherit
it). Then prints, per file of ``src/``, the functions no driver called
and the lines they span, and checks that every ``repro`` name that
``ledger/``, ``benchmarks/`` or ``examples/`` imports still imports.

    python3 tools/reach.py                      # every driver, ~4 min on 2 CPUs
    python3 tools/reach.py --skip check         # leave a driver out, by name
    python3 tools/reach.py --json reach.json    # also write the result as JSON
    python3 tools/reach.py --baseline old.json  # functions deleted since old.json

``@abstractmethod`` stubs are left out of the function list: no call
can enter one, so they would read as unreached forever.

Each unreached function is sorted into a class: ``failure`` (a path
only a fault, a rank death, an overload or a refused input takes),
``oracle`` (a reference implementation, or substrate API only tests call
as a harness), ``cosmetic`` (``__repr__``/``__str__``) or ``other``,
which is everything else: code no driver and no failure needs, the list
a deletion round works from. ``CLASSES`` holds the first two, by file or
by qualified name; the report prints the function-lines per class.

``--baseline`` reads a document an earlier run wrote with ``--json`` and
lists the functions it knew that are gone now, flagging any a driver
reached then, and the functions a driver reached then that none reaches
now. Functions in ``TIMING_DEPENDENT`` are reached only when a
wall-clock timeout expires, so whether a sweep reaches them depends on
how loaded the host is: they get a section of their own, are not
counted among the unreached and are never flagged against a baseline.
Standard library only; too slow for CI.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Installed as ``sitecustomize`` in every driver's interpreter.
_RECORDER = '''
import atexit, json, os, sys, threading
_seen = set()
def _prof(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
sys.setprofile(_prof)
threading.setprofile(_prof)
def _dump():
    sys.setprofile(None)
    prefix = os.environ["REACH_SRC"]
    rows = sorted({(c.co_filename, c.co_firstlineno) for c in _seen
                   if c.co_filename.startswith(prefix)})
    path = os.path.join(os.environ["REACH_OUT"], "%d.json" % os.getpid())
    with open(path, "w") as fh:
        json.dump(rows, fh)
atexit.register(_dump)
'''

SECTIONS = ("table1", "snr", "traffic", "trace", "fig5", "fig6", "fig7", "fig8",
            "fig9", "serve", "check")
WORKLOADS = ("kernel_mix", "seq_soi_1d", "seq_soi_batch", "dist_soi", "serve_mix")

_RETRY = ("called by the thread engine's reliable receive "
          "(simmpi/comm.py Communicator._reliable_step) only once "
          "TransportPolicy.retry_timeout (50 ms of wall clock) expires")
#: (file, function) -> why a sweep may or may not reach it.
TIMING_DEPENDENT = {
    ("src/repro/simmpi/transport.py", "World._in_flight"): _RETRY,
    ("src/repro/simmpi/transport.py", "_carries"): _RETRY,
}

#: "file" or "file::qualified.name" -> the class of its unreached
#: functions. A qualified name also covers the functions nested in it.
CLASSES = {
    # Fault injection, retransmission, rank death and recovery.
    "src/repro/simmpi/faults.py": "failure",
    "src/repro/simmpi/errors.py": "failure",
    "src/repro/parallel/resilience.py": "failure",
    "src/repro/serve/errors.py": "failure",
    "src/repro/simmpi/comm.py::Communicator._request_redelivery": "failure",
    # A SubCommunicator exists only once shrink() has dropped a dead rank.
    "src/repro/simmpi/comm.py::SubCommunicator": "failure",
    "src/repro/simmpi/des.py::DesScheduler.notify_all": "failure",
    "src/repro/simmpi/des.py::DesScheduler.add_callback_timer": "failure",
    "src/repro/simmpi/des.py::DesBarrier.abort": "failure",
    "src/repro/simmpi/des.py::DesWorld._delayed_put": "failure",
    "src/repro/simmpi/des.py::DesWorld.mark_failed": "failure",
    "src/repro/simmpi/des.py::DesWorld.abort": "failure",
    "src/repro/simmpi/transport.py::_reframe": "failure",
    "src/repro/simmpi/transport.py::World._delayed_put": "failure",
    "src/repro/simmpi/transport.py::World.abort": "failure",
    "src/repro/simmpi/transport.py::World._corrupt": "failure",
    "src/repro/simmpi/transport.py::World.request_retransmit": "failure",
    "src/repro/simmpi/stats.py::TrafficStats.record_retransmit": "failure",
    "src/repro/simmpi/stats.py::TrafficStats.record_duplicate": "failure",
    "src/repro/simmpi/stats.py::TrafficStats.record_corrupt": "failure",
    "src/repro/simmpi/stats.py::TrafficStats.total_retransmit_bytes": "failure",
    "src/repro/simmpi/stats.py::TrafficStats.total_corrupt_detected": "failure",
    "src/repro/simmpi/stats.py::TrafficStats.total_duplicates_discarded": "failure",
    "src/repro/simmpi/stats.py::TrafficStats.total_recovery_bytes": "failure",
    "src/repro/simmpi/stats.py::TrafficStats.total_recovery_flops": "failure",
    "src/repro/simmpi/stats.py::TrafficStats.total_detected_failures": "failure",
    "src/repro/simmpi/runtime.py::SpmdResult.degraded": "failure",
    "src/repro/simmpi/runtime.py::_default_restartable": "failure",
    "src/repro/simmpi/runtime.py::_run_once.is_secondary": "failure",
    "src/repro/trace/spans.py::TraceRecorder.degraded": "failure",
    "src/repro/trace/spans.py::TraceRecorder.failed_ranks": "failure",
    "src/repro/trace/spans.py::TraceRecorder.record_retransmit": "failure",
    "src/repro/trace/spans.py::TraceRecorder.record_failure": "failure",
    "src/repro/trace/spans.py::TraceRecorder.record_recovery": "failure",
    "src/repro/check/schedules.py::ScheduleController.held_items": "failure",
    "src/repro/core/accuracy.py::parseval_check": "failure",
    # Serve overload: shedding, deadlines and drain.
    "src/repro/serve/admission.py::AdmissionController.load": "failure",
    "src/repro/serve/admission.py::AdmissionController._shed_badness": "failure",
    "src/repro/serve/admission.py::AdmissionController._victim": "failure",
    "src/repro/serve/admission.py::AdmissionController.drain": "failure",
    "src/repro/serve/server.py::TransformServer._on_shed": "failure",
    "src/repro/serve/server.py::TransformServer._finish_unexecuted": "failure",
    "src/repro/serve/metrics.py::MetricsLog.record": "failure",
    "src/repro/serve/request.py::Ticket.exception": "failure",
    "src/repro/serve/request.py::Ticket._fail": "failure",
    # References the fast paths are tested against, and the race detector.
    "src/repro/core/matrices.py": "oracle",
    "src/repro/core/theory.py": "oracle",
    "src/repro/dft/naive.py": "oracle",
    "src/repro/check/hb.py": "oracle",
    "src/repro/core/windows.py::ReferenceWindow.w_time": "oracle",
    "src/repro/utils/intmath.py::bit_reverse_indices": "oracle",
    # MPI substrate API no rank program calls; tests drive it as a harness.
    "src/repro/simmpi/comm.py::Communicator.bcast": "oracle",
    "src/repro/simmpi/comm.py::Communicator.gather": "oracle",
    "src/repro/simmpi/comm.py::Communicator.scatter": "oracle",
    "src/repro/simmpi/comm.py::Communicator.reduce": "oracle",
    "src/repro/simmpi/comm.py::Communicator.allreduce": "oracle",
    # Tests index a run's result as res[rank] and iterate it.
    "src/repro/simmpi/runtime.py::SpmdResult.__iter__": "oracle",
    "src/repro/simmpi/runtime.py::SpmdResult.__getitem__": "oracle",
    # The world barrier under the DES, a tracer or a fuzzing scheduler.
    "src/repro/simmpi/des.py::DesBarrier.wait": "oracle",
    "src/repro/trace/spans.py::TraceRecorder.record_barrier": "oracle",
    "src/repro/check/schedules.py::ScheduleController.on_barrier_enter": "oracle",
    "src/repro/check/schedules.py::ScheduleController.on_barrier_exit": "oracle",
}
CLASS_ORDER = ("failure", "oracle", "cosmetic", "other")


def classify(file: str, name: str) -> str:
    """The class of function *name* of *file* (see ``CLASSES``)."""
    if name.rsplit(".", 1)[-1] in ("__repr__", "__str__"):
        return "cosmetic"
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        key = f"{file}::{'.'.join(parts[:i])}"
        if key in CLASSES:
            return CLASSES[key]
    return CLASSES.get(file, "other")


def drivers(tmp: Path) -> dict[str, list[str]]:
    """Driver name -> command line, run from the repository root; files a
    driver writes go under *tmp*."""
    py = sys.executable
    out = {f"example:{p.stem}": [py, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))}
    # Timings off: pytest-benchmark's calibration pauses every profiler
    # while it times, so the benchmarked calls would go unrecorded.
    out["benchmarks"] = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "--benchmark-disable", "benchmarks"]
    out["ledger"] = [py, "-m", "ledger", "run", "--quick"]
    for w in WORKLOADS:
        out[f"ledger-trace:{w}"] = [py, "-m", "ledger", "run", "--workload", w,
                                    "--trace", "1", "--quick"]
    for s in SECTIONS:
        out[s] = [py, "-m", "repro", s]
    # Only the flag reaches the Chrome-trace export.
    out["trace"] += ["--trace-out", str(tmp / "soi.trace.json")]
    return out


def run_drivers(skip: set[str]) -> set[tuple[str, int]]:
    """Run every driver not in *skip*; the (file, first line) of each code
    object of ``src/`` that any of their interpreters entered."""
    reached: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(_RECORDER)
        env = dict(os.environ, REACH_OUT=str(out), REACH_SRC=str(SRC),
                   PYTHONPATH=os.pathsep.join([str(site), str(SRC)]))
        for name, cmd in drivers(Path(tmp)).items():
            if name in skip or name.split(":")[0] in skip:
                continue
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
            print(f"reach: {name:<28} {time.perf_counter() - t0:6.1f} s  {status}",
                  file=sys.stderr, flush=True)
        for path in out.glob("*.json"):
            reached.update((f, line) for f, line in json.loads(path.read_text()))
    return reached


def _abstract(node: ast.AST) -> bool:
    """Whether a function definition is decorated ``@abstractmethod``."""
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    )


def functions() -> list[dict]:
    """Every function and method of ``src/``, nested ones included; each
    marked ``abstract`` when it is an ``@abstractmethod`` stub."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        rel = str(path.relative_to(ROOT))

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append({"file": rel, "abs": str(path), "name": prefix + child.name,
                                  "first": first, "def": child.lineno,
                                  "last": child.end_lineno, "abstract": _abstract(child)})
                    walk(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def report(funcs: list[dict], reached: set[tuple[str, int]]) -> dict:
    """Mark each function reached or not and print the per-file table,
    then the timing-dependent functions apart."""
    for f in funcs:
        f["reached"] = (f["abs"], f["first"]) in reached or (f["abs"], f["def"]) in reached
        f["timing_dependent"] = (f["file"], f["name"]) in TIMING_DEPENDENT
        f["class"] = classify(f["file"], f["name"])
    by_file: dict[str, list[dict]] = {}
    for f in funcs:
        if not f["timing_dependent"]:
            by_file.setdefault(f["file"], []).append(f)
    rows, total = [], 0
    for rel, fs in by_file.items():
        # Lines of unreached functions, as a set so nested ones count once.
        lines = {n for f in fs if not f["reached"] for n in range(f["first"], f["last"] + 1)}
        missing = [f for f in fs if not f["reached"]]
        if not missing:
            continue
        total += len(lines)
        rows.append((rel, len(lines), missing))
    for rel, nlines, missing in sorted(rows, key=lambda r: -r[1]):
        print(f"{rel}: {nlines} unreached function-lines")
        for f in missing:
            print(f"    {f['name']} ({f['last'] - f['first'] + 1} lines, "
                  f"line {f['first']}) [{f['class']}]")
    counted = [f for f in funcs if not f["timing_dependent"]]
    print(f"total: {total} unreached function-lines in {len(rows)} files, "
          f"{sum(1 for f in counted if not f['reached'])} of {len(counted)} functions")
    # Per class, a line counts once however deeply its functions nest.
    per_class = {}
    for c in CLASS_ORDER:
        mine = [f for f in counted if not f["reached"] and f["class"] == c]
        lines = {(f["file"], n) for f in mine for n in range(f["first"], f["last"] + 1)}
        per_class[c] = {"lines": len(lines), "functions": len(mine)}
    print("by class: " + ", ".join(
        f"{c} {v['lines']} lines in {v['functions']} functions" for c, v in per_class.items()))
    timed = [f for f in funcs if f["timing_dependent"]]
    print(f"timing-dependent (not counted): {len(timed)} functions")
    for f in timed:
        state = "reached" if f["reached"] else "not reached"
        print(f"    {f['file']}::{f['name']} ({state} this sweep): "
              f"{TIMING_DEPENDENT[f['file'], f['name']]}")
    keys = ("file", "name", "first", "last", "reached", "timing_dependent", "class")
    return {"total_unreached_lines": total,
            "per_file": {rel: nlines for rel, nlines, _ in rows},
            "per_class": per_class,
            "functions": [{k: f[k] for k in keys} for f in funcs]}


def deleted_since(baseline: dict, funcs: list[dict]) -> None:
    """Print the functions *baseline* knew that are gone now, and those a
    driver reached then that none reached now; timing-dependent ones are
    never flagged."""
    now = {(f["file"], f["name"]): f for f in funcs}
    old = [f for f in baseline["functions"] if (f["file"], f["name"]) not in TIMING_DEPENDENT]
    gone = [f for f in old if (f["file"], f["name"]) not in now]
    reached = [f for f in gone if f["reached"]]
    print(f"deleted since baseline: {len(gone)} functions, {len(reached)} of them reached then")
    for f in reached:
        print(f"    REACHED: {f['file']}::{f['name']}")
    lost = [f for f in old if f["reached"] and not now.get((f["file"], f["name"]), f)["reached"]]
    print(f"reached by the baseline's drivers, by none now: {len(lost)} functions")
    for f in lost:
        print(f"    LOST: {f['file']}::{f['name']}")


def check_imports() -> list[str]:
    """``repro`` names imported by the drivers' own code that fail to import."""
    sys.path.insert(0, str(SRC))
    broken = []
    for top in ("ledger", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                    mod = importlib.import_module(node.module)
                    for alias in node.names:
                        if not hasattr(mod, alias.name):
                            try:
                                importlib.import_module(f"{node.module}.{alias.name}")
                            except ImportError:
                                broken.append(f"{path.relative_to(ROOT)}: "
                                              f"{node.module}.{alias.name}")
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("repro"):
                            try:
                                importlib.import_module(alias.name)
                            except ImportError:
                                broken.append(f"{path.relative_to(ROOT)}: {alias.name}")
    return broken


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--skip", action="append", default=[], metavar="DRIVER",
                        help="leave a driver out: a name such as 'check' or "
                        "'ledger-trace:dist_soi', or a prefix such as 'example'")
    parser.add_argument("--json", metavar="PATH", help="write the result as JSON")
    parser.add_argument("--baseline", metavar="PATH",
                        help="a --json document of an earlier tree: list what was deleted")
    args = parser.parse_args(argv)
    everything = functions()
    funcs = [f for f in everything if not f["abstract"]]
    result = report(funcs, run_drivers(set(args.skip)))
    if args.baseline:
        # Abstract stubs still exist: a baseline that listed them has not
        # seen them deleted.
        deleted_since(json.loads(Path(args.baseline).read_text()), everything)
    broken = check_imports()
    print(f"driver imports: {len(broken)} broken")
    for line in broken:
        print(f"    {line}")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
