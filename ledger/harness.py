"""One workload, one process: set-up, warm-up, bursts, metrics.

``measure`` produces the end-to-end metrics with tracing off; ``traced``
repeats the workload under spans for a fixed op count, runs the layer
probes, and produces the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import time
from dataclasses import dataclass

from . import env
from .inputs import digest
from .trace import Tracer, layer_self_seconds, write_chrome_trace
from .workloads import WORKLOADS, Workload

LAYERS = ("dft", "core", "simmpi", "parallel", "serve")


@dataclass(frozen=True)
class Pace:
    """How long each phase of a run lasts."""

    setup_probes: int     # fresh, pre-faulted interpreters timed for setup_s
    warmup_s: float
    burst_s: float        # program-busy seconds per burst
    min_bursts: int
    probe_reps: int       # repetitions behind each per-layer time
    traced_blocks: int    # alternating plain/traced blocks of Workload.traced_ops
    quick: bool = False   # small calibration arrays


FULL = Pace(setup_probes=3, warmup_s=1.5, burst_s=0.5, min_bursts=3, probe_reps=5, traced_blocks=4)
QUICK = Pace(setup_probes=1, warmup_s=0.0, burst_s=0.2, min_bursts=2, probe_reps=1, traced_blocks=1,
             quick=True)


def cold_start(name: str, seed: int, import_s: float) -> tuple[Workload, dict, bool]:
    """Construct *name* and run its first (cold) op; input generation is
    not timed.  Returns the warm workload, the set-up segments, and whether
    the first op verified."""
    wl = WORKLOADS[name](seed)
    t0 = time.perf_counter()
    wl.construct()
    t1 = time.perf_counter()
    out = wl.first_op()
    t2 = time.perf_counter()
    segments = {"import_s": import_s, "construct_s": t1 - t0, "first_op_s": t2 - t1}
    segments["setup_s"] = sum(segments.values())
    return wl, segments, bool(wl.check_first(out))


def cold_probe(name: str, seed: int) -> dict:
    """Set-up segments of one fresh interpreter with a pre-faulted heap."""
    done = subprocess.run(
        env.child_command("cold", "--workload", name, "--seed", str(seed)),
        cwd=env.ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"cold-start probe of {name} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, pace: Pace, import_s: float) -> dict:
    """End-to-end metrics of *name*, tracing off."""
    wl, own_cold_start, ok = cold_start(name, seed, import_s)
    attempted, failed = 1, 0 if ok else 1
    setups = [cold_probe(name, seed) for _ in range(pace.setup_probes)]
    failed += sum(1 for s in setups if not s["ok"])
    attempted += len(setups)

    wl.allocate_twins()
    i = 1
    if pace.warmup_s > 0:
        warm = wl.burst(i, pace.warmup_s, check_all=True)
        i += warm.ops
        attempted += warm.ops
        failed += warm.failed

    throughput, ratio, latencies = [], [], []
    t_measure = time.perf_counter()
    while len(throughput) < pace.min_bursts or time.perf_counter() - t_measure < seconds:
        gc.collect()
        gc.disable()   # collections happen between bursts, never inside one
        try:
            b = wl.burst(i, pace.burst_s, twin=True)
        finally:
            gc.enable()
        i += b.ops
        attempted += b.ops
        failed += b.failed
        throughput.append(b.ops / b.wall)
        ratio.extend(b.ratios)
        latencies.extend(b.latencies)
    wl.close()

    setup_values = [s["setup_s"] for s in setups]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setup_values),
            "throughput_ops": statistics.median(throughput),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "numpy_ratio": statistics.median(ratio),
            "peak_rss_mb": env.peak_rss_mb(),
        },
        "detail": {
            "failed_share": failed / attempted,
            "input_digest": digest(wl.inputs),
            "bursts": len(throughput),
            "latency_samples": len(latencies),
            "ratio_samples": len(ratio),
            "latency_quartiles_ms": [q * 1e3 for q in statistics.quantiles(latencies, n=4)],
            "setup_segments": setups,
            "own_cold_start": own_cold_start,   # this process: no pre-faulted heap
        },
    }


def traced(name: str, seed: int, pace: Pace, import_s: float) -> dict:
    """Per-layer metrics: the workload under spans, then the layer probes."""
    from . import probes

    wl, _, ok = cold_start(name, seed, import_s)
    attempted, failed = 1, 0 if ok else 1
    i = 1
    warm = wl.burst(i, max_ops=1, check_all=True)
    i += warm.ops
    attempted += warm.ops
    failed += warm.failed

    tracer = Tracer()
    plain_ops = plain_wall = traced_ops = traced_wall = 0.0
    for _ in range(pace.traced_blocks):
        for tr in (None, tracer):
            gc.collect()
            b = wl.burst(i, max_ops=wl.traced_ops, tracer=tr)
            i += b.ops
            attempted += b.ops
            failed += b.failed
            if tr is None:
                plain_ops, plain_wall = plain_ops + b.ops, plain_wall + b.wall
            else:
                traced_ops, traced_wall = traced_ops + b.ops, traced_wall + b.wall
    wl.close()
    input_digest = digest(wl.inputs)
    del wl
    gc.collect()

    own = layer_self_seconds(tracer.spans)
    values = {
        "trace.overhead_share": 1.0 - (traced_ops / traced_wall) / (plain_ops / plain_wall),
        "trace.spans": float(len(tracer.spans)),
    }
    for layer in LAYERS:
        values[f"trace.self_ms.{layer}"] = own.get(layer, 0.0) / traced_ops * 1e3
    trace_path = env.OUT / f"trace-{name}.json"
    write_chrome_trace(
        tracer.spans, trace_path,
        {"workload": name, "seed": seed, "ops": int(traced_ops), "lanes": "0 generator, 1.. ranks or window slots"},
    )

    probed = probes.run_all(seed, pace.probe_reps, pace.quick)
    values.update(probed.values)
    attempted += probed.attempted
    failed += probed.failed

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "detail": {
            "input_digest": input_digest,
            "absent": sorted(probed.absent),
            "notes": probed.notes,
            "trace_file": str(trace_path.relative_to(env.ROOT)),
            "self_ms_harness": own.get("harness", 0.0) / traced_ops * 1e3,
        },
    }
