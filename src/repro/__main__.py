"""Command-line entry point: regenerate the paper's evaluation as text.

Usage::

    python -m repro                 # all figures + accuracy + traffic
    python -m repro fig5 fig8      # a subset
    python -m repro trace --trace-out soi.trace.json --chaos-seed 7
    python -m repro check --schedules 25 --seed 0 --report-out check.json
    python -m repro --json traffic # machine-readable payloads too
    python -m repro --list

Each section prints the same rows/series the corresponding paper
table/figure reports (see EXPERIMENTS.md for the recorded comparison)
and returns a JSON-safe payload; ``--json`` dumps the payloads of the
selected sections as one JSON object after the text output.

The ``trace`` section runs both distributed algorithms on the DES
engine and prints their :mod:`repro.trace` timelines: an ASCII timeline per
algorithm, per-kind/per-phase rollups, and — with ``--trace-out`` — a
Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _fig_sweeps(names: list[str]) -> dict:
    from .bench import run_figure_sweep
    from .cluster import cluster

    nodes = [1, 2, 4, 8, 16, 32, 64]
    configs = {
        "fig5": ("Figure 5", "endeavor", ["SOI", "MKL", "FFTE", "FFTW"]),
        "fig6": ("Figure 6", "gordon", ["SOI", "MKL"]),
        "fig8": ("Figure 8", "endeavor-10gbe", ["SOI", "MKL"]),
    }
    payload = {}
    for key in names:
        title, cname, libs = configs[key]
        result = run_figure_sweep(title, cluster(cname), nodes, libs)
        print(result.text)
        print()
        payload[key] = {
            "title": title,
            "cluster": cname,
            "nodes": nodes,
            "gflops": {
                lib: [result.sweep.points[(lib, n)].gflops for n in nodes]
                for lib in libs
            },
            "speedup_over_mkl": list(result.sweep.speedup_series("MKL")),
            "trace": result.extras.get("trace", {}),
        }
    return payload


def _fig7(args: argparse.Namespace) -> dict:
    from .bench import format_table, random_complex
    from .cluster import cluster
    from .core import SoiPlan, snr_db, soi_fft
    from .core.design import preset_design
    from .perf import run_sweep

    n = 1 << 14
    x = random_complex(n, 7)
    ref = np.fft.fft(x)
    rows = []
    for preset in ("full", "digits13", "digits12", "digits11", "digits10"):
        design = preset_design(preset)
        plan = SoiPlan(n=n, p=8, window=preset)
        snr = snr_db(soi_fft(x, plan), ref)
        sweep = run_sweep(cluster("gordon"), [64], libraries=["SOI", "MKL"], b=design.b)
        rows.append([preset, design.b, snr, sweep.speedup_series("MKL")[0]])
    print(
        format_table(
            ["window", "B", "SNR dB (measured)", "64-node speedup (model)"],
            rows,
            title="Figure 7 — accuracy for speed",
        )
    )
    print()
    return {
        "rows": [
            {"window": w, "b": b, "snr_db": float(s), "speedup_64_nodes": float(sp)}
            for w, b, s, sp in rows
        ]
    }


def _fig9(args: argparse.Namespace) -> dict:
    from .bench import format_table
    from .perf import projection_curve

    nodes = [16, 128, 1024, 4096, 16384]
    curves = projection_curve(nodes)
    rows = [
        [n] + [curves[c][i] for c in (0.75, 1.0, 1.25)] for i, n in enumerate(nodes)
    ]
    print(
        format_table(
            ["nodes", "c=0.75", "c=1.00", "c=1.25"],
            rows,
            title="Figure 9 — projected speedup, hypothetical 3-D torus",
        )
    )
    print()
    return {
        "nodes": nodes,
        "curves": {str(c): [float(v) for v in curves[c]] for c in (0.75, 1.0, 1.25)},
    }


def _table1(args: argparse.Namespace) -> dict:
    from .bench import format_table
    from .cluster import cluster

    node = cluster("endeavor").node
    rows = node.table_rows()
    rows.append(("Endeavor fabric", cluster("endeavor").fabric.name))
    rows.append(("Gordon fabric", cluster("gordon").fabric.name))
    print(format_table(["Field", "Value"], rows, title="Table 1 — system configuration"))
    print()
    return {"rows": [[str(k), str(v)] for k, v in rows]}


def _snr(args: argparse.Namespace) -> dict:
    from .bench import format_table, random_complex
    from .core import SoiPlan, snr_db, soi_fft

    n = 1 << 14
    x = random_complex(n, 42)
    plan = SoiPlan(n=n, p=8)
    soi_snr = snr_db(soi_fft(x, plan), np.fft.fft(x))
    print(
        format_table(
            ["transform", "SNR dB"],
            [["SOI (full accuracy)", soi_snr], ["paper's SOI", 290.0], ["paper's MKL", 310.0]],
            title="Section 7.2 — accuracy",
        )
    )
    print()
    return {"soi_snr_db": float(soi_snr), "paper_soi_db": 290.0, "paper_mkl_db": 310.0}


def _traffic(args: argparse.Namespace) -> dict:
    from .bench import format_table, measured_traffic, random_complex
    from .core import SoiPlan
    from .parallel import soi_fft_distributed
    from .simmpi import run_spmd

    n, ranks = 1 << 13, 4
    plan = SoiPlan(n=n, p=8)
    facts = measured_traffic(n, ranks, plan)
    soi_a2a = facts["soi_stats"].phase("alltoall").total_bytes
    std = sum(
        facts["std_stats"].phase(p).total_bytes
        for p in ("transpose-1", "transpose-2", "transpose-3")
    )
    print(
        format_table(
            ["algorithm", "all-to-all rounds", "bytes moved"],
            [["SOI", facts["soi_alltoall_rounds"], soi_a2a],
             ["six-step baseline", facts["std_alltoall_rounds"], std]],
            title=f"Communication structure (measured, N=2^13, {ranks} ranks)",
        )
    )
    print()

    # Topology section (PR 8): the same SOI transform under a node
    # shape, per schedule — intra-node traffic rides the zero-copy
    # shared-buffer path and is split out from what hits the fabric.
    rpn = 2
    blocks = random_complex(n, 5).reshape(ranks, -1)
    topology: dict = {
        "ranks_per_node": rpn,
        "nodes": ranks // rpn,
        "algorithms": {},
    }
    topo_rows = []
    for algorithm in ("pairwise", "hierarchical"):
        res = run_spmd(
            ranks,
            lambda comm: soi_fft_distributed(comm, blocks[comm.rank], plan),
            ranks_per_node=rpn,
            alltoall_algorithm=algorithm,
        )
        st = res.stats
        entry = {
            "selected_algorithm": algorithm,
            "intra_node_bytes": int(st.total_intra_node_bytes),
            "inter_node_bytes": int(st.total_inter_node_bytes),
            "inter_node_messages": int(st.total_inter_node_messages),
        }
        topology["algorithms"][algorithm] = entry
        topo_rows.append([
            algorithm,
            entry["intra_node_bytes"],
            entry["inter_node_bytes"],
            entry["inter_node_messages"],
        ])
    print(
        format_table(
            ["algorithm", "intra-node bytes", "inter-node bytes", "inter-node msgs"],
            topo_rows,
            title=(
                f"Topology (SOI, {ranks} ranks as {ranks // rpn} nodes "
                f"x {rpn} ranks/node)"
            ),
        )
    )
    print()
    return {
        "n": n,
        "nranks": ranks,
        "soi_alltoall_rounds": facts["soi_alltoall_rounds"],
        "std_alltoall_rounds": facts["std_alltoall_rounds"],
        "soi_alltoall_bytes": int(soi_a2a),
        "std_transpose_bytes": int(std),
        "soi_stats": facts["soi_stats"].as_dict(),
        "std_stats": facts["std_stats"].as_dict(),
        "topology": topology,
    }


def _trace(args: argparse.Namespace) -> dict:
    """Traced 8-rank DES runs of both algorithms on the virtual timeline."""
    from .bench import random_complex
    from .core import SoiPlan, snr_db
    from .parallel import soi_fft_distributed, split_blocks, transpose_fft_distributed
    from .simmpi import ChaosSchedule, TransportPolicy, run_spmd
    from .trace import TraceRecorder, ascii_timeline, rollup, write_chrome_trace

    n, ranks = 1 << 14, 8
    plan = SoiPlan(n=n, p=8)
    x = random_complex(n, 3)
    blocks = split_blocks(x, ranks)
    ref = np.fft.fft(x)

    chaos_seed = getattr(args, "chaos_seed", None)
    run_kwargs: dict = {}
    if chaos_seed is not None:
        run_kwargs["faults"] = ChaosSchedule(
            seed=chaos_seed, p_bitflip=0.05, p_drop=0.02
        )
        run_kwargs["transport"] = TransportPolicy()

    payload: dict = {"n": n, "nranks": ranks, "chaos_seed": chaos_seed, "runs": {}}
    timelines = {}
    for name, fn in (
        ("soi", lambda comm: soi_fft_distributed(comm, blocks[comm.rank], plan)),
        ("transpose", lambda comm: transpose_fft_distributed(comm, blocks[comm.rank], n)),
    ):
        recorder = TraceRecorder()
        res = run_spmd(ranks, fn, engine="des", trace=recorder, **run_kwargs)
        tl = recorder.timeline()
        agg = rollup(tl)
        timelines[name] = tl
        payload["runs"][name] = {
            "snr_db": float(snr_db(np.concatenate(res.values), ref)),
            "rollup": agg,
            "traffic": res.stats.as_dict(),
        }
        title = "SOI (one all-to-all)" if name == "soi" else "six-step (three all-to-alls)"
        print(f"{title} — N=2^14, {ranks} ranks"
              + (f", chaos seed {chaos_seed}" if chaos_seed is not None else ""))
        print(ascii_timeline(tl))
        cp = agg["critical_path"]
        print(
            f"  makespan {agg['makespan_s'] * 1e3:.3f} ms virtual | "
            f"all-to-all epochs: {agg['alltoall_epochs']} | "
            f"wait fraction: {agg['wait_fraction']:.1%} | "
            f"critical path covers {cp['coverage']:.1%} of makespan"
        )
        print()

    soi_r = payload["runs"]["soi"]["rollup"]
    std_r = payload["runs"]["transpose"]["rollup"]
    print(
        f"virtual speedup (six-step / SOI makespan): "
        f"{std_r['makespan_s'] / soi_r['makespan_s']:.2f}x "
        f"({soi_r['alltoall_epochs']} vs {std_r['alltoall_epochs']} all-to-all epochs)"
    )
    print()

    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        write_chrome_trace(timelines["soi"], trace_out)
        payload["trace_out"] = trace_out
        print(f"wrote Chrome trace-event JSON (SOI run) to {trace_out}")
        print()
    return payload


def _serve(args: argparse.Namespace) -> dict:
    """Demo the transform service: mixed load, then the SLO report."""
    import threading

    from .bench import format_table
    from .bench.workloads import random_complex
    from .serve import PRIORITY_CLASSES, ServeConfig, TransformServer

    n = 1024
    clients, per_client = 12, 4
    cfg = ServeConfig(
        workers=2, max_batch=32, batch_linger_s=0.001,
        warm_shapes=(n,), default_library="repro",
    )
    xs = [random_complex(n, seed) for seed in range(4)]
    prios = sorted(PRIORITY_CLASSES, key=PRIORITY_CLASSES.get)
    with TransformServer(cfg) as srv:
        def client(ci: int) -> None:
            for _ in range(per_client):
                srv.submit(
                    xs[ci % len(xs)], backend="dft", priority=prios[ci % len(prios)]
                ).result(timeout=60.0)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = srv.metrics_report()
        warmup = srv.warmup_info()
    rows = [
        [name, c["completed"], f"{c['p50_ms']:.2f}", f"{c['p95_ms']:.2f}",
         f"{c['p99_ms']:.2f}", f"{c['mean_execute_ms']:.3f}"]
        for name, c in sorted(
            report["classes"].items(), key=lambda kv: kv[1]["priority"]
        )
    ]
    print(
        format_table(
            ["class", "done", "p50 ms", "p95 ms", "p99 ms", "exec ms"],
            rows,
            title=f"serve — {clients}-client demo load, dft n={n}, repro library",
        )
    )
    print(
        f"{report['completed']}/{report['requests']} requests in "
        f"{report['batches']} coalesced batches (mean size "
        f"{report['mean_batch_size']:.1f}, max {report['max_batch_size']}); "
        f"plan cache warmed: {warmup.get('shapes', {})}"
    )
    print()
    return {
        "n": n,
        "clients": clients,
        "per_client": per_client,
        "config": {
            "workers": cfg.workers,
            "max_queue": cfg.max_queue,
            "max_batch": cfg.max_batch,
            "batch_linger_s": cfg.batch_linger_s,
        },
        "warmup": warmup,
        "report": report,
    }


def _check(args: argparse.Namespace) -> dict:
    """Correctness audit: conformance registry + schedule fuzzing + HB scan."""
    from .bench import format_table
    from .check import HbTracker, fuzz_distributed_soi, install_cache_observers, run_conformance

    size = getattr(args, "check_size", None) or "default"
    schedules = getattr(args, "schedules", None)
    schedules = 25 if schedules is None else schedules
    seed = getattr(args, "seed", None)
    seed = 0 if seed is None else seed

    conf = run_conformance(size)
    groups = conf.summary()["groups"]
    print(
        format_table(
            ["group", "entry points", "passed"],
            [[g, v["total"], v["passed"]] for g, v in sorted(groups.items())],
            title=f"conformance registry ({size}): every transform path vs its oracle",
        )
    )
    for row in conf.failures():
        print(
            f"  FAIL {row.name}: error {row.error:.3e} > tolerance "
            f"{row.tolerance:.3e} {row.detail}"
        )
    print()

    # Fuzz the flagship determinism claim on the repro backend so the
    # rank threads also hammer the dft plan cache under audit.
    hb = HbTracker(4)
    restore = install_cache_observers(hb)
    try:
        fuzz = fuzz_distributed_soi(
            schedules=schedules,
            seed=seed,
            backend="repro",
            controller_kwargs={"hb": hb},
        )
    finally:
        restore()
    hb_report = hb.report()
    print(
        f"schedule fuzz: {fuzz.schedules} replays (seed {seed}), "
        f"{fuzz.distinct_interleavings} distinct interleavings, "
        f"deterministic: {fuzz.ok}"
    )
    for mm in fuzz.mismatches:
        print(f"  MISMATCH schedule {mm.schedule_seed}: {mm.field} — {mm.detail}")
    print(
        f"happens-before: {len(hb_report['states_audited'])} shared states audited "
        f"({', '.join(sorted(hb_report['states_audited'])) or 'none'}), "
        f"clean: {hb_report['clean']}"
    )

    # Same standard for the pipelined path: outputs and traffic must be
    # bitwise schedule-independent (trace comparison is off by design —
    # the waitany drain records arrival order; see fuzz_distributed_soi).
    fuzz_overlap = fuzz_distributed_soi(
        schedules=schedules, seed=f"{seed}/overlap", overlap=True
    )
    print(
        f"schedule fuzz (overlap=True): {fuzz_overlap.schedules} replays, "
        f"{fuzz_overlap.distinct_interleavings} distinct interleavings, "
        f"deterministic: {fuzz_overlap.ok}"
    )
    for mm in fuzz_overlap.mismatches:
        print(f"  MISMATCH schedule {mm.schedule_seed}: {mm.field} — {mm.detail}")
    print()

    ok = bool(conf.ok and fuzz.ok and fuzz_overlap.ok and hb_report["clean"])
    payload = {
        "ok": ok,
        "conformance": conf.as_dict(),
        "fuzz": fuzz.as_dict(),
        "fuzz_overlap": fuzz_overlap.as_dict(),
        "hb": hb_report,
    }
    report_out = getattr(args, "report_out", None)
    if report_out:
        with open(report_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote correctness report to {report_out}")
        print()
    return payload


SECTIONS = {
    "table1": _table1,
    "snr": _snr,
    "traffic": _traffic,
    "trace": _trace,
    "fig5": lambda args: _fig_sweeps(["fig5"])["fig5"],
    "fig6": lambda args: _fig_sweeps(["fig6"])["fig6"],
    "fig7": _fig7,
    "fig8": lambda args: _fig_sweeps(["fig8"])["fig8"],
    "fig9": _fig9,
    "serve": _serve,
    "check": _check,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures as text.",
    )
    parser.add_argument(
        "sections",
        nargs="*",
        choices=[*SECTIONS, []],
        help=f"subset to regenerate (default: all of {', '.join(SECTIONS)})",
    )
    parser.add_argument("--list", action="store_true", help="list sections and exit")
    parser.add_argument(
        "--json",
        action="store_true",
        help="after the text output, dump the selected sections as one JSON object",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="trace section: write the SOI run as Chrome trace-event JSON to PATH",
    )
    parser.add_argument(
        "--schedules",
        metavar="N",
        type=int,
        default=None,
        help="check section: number of fuzzed interleavings to replay (default 25)",
    )
    parser.add_argument(
        "--seed",
        metavar="N",
        type=int,
        default=None,
        help="check section: base seed for the schedule fuzzer (default 0)",
    )
    parser.add_argument(
        "--check-size",
        choices=["small", "default"],
        default=None,
        help="check section: conformance registry size (small = CI smoke)",
    )
    parser.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="check section: write the full correctness report as JSON to PATH",
    )
    parser.add_argument(
        "--chaos-seed",
        metavar="N",
        type=int,
        default=None,
        help="trace section: inject seeded wire faults (ChaosSchedule) over the "
        "reliable transport so retransmissions appear on the timeline",
    )
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(SECTIONS))
        return 0
    payloads = {}
    for name in args.sections or list(SECTIONS):
        payloads[name] = SECTIONS[name](args)
    if args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    # Audit sections publish an "ok" verdict; a failed audit fails the run.
    if any(p.get("ok") is False for p in payloads.values() if isinstance(p, dict)):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
