"""Per-layer micro-probes: timed calls into public functions of each layer.

Each probe fills ``Probed.values`` with the metrics of one layer of
``BENCHMARK.json``'s ``per_layer`` list.  Times are medians over *reps*
calls after one warm call.  Engine-specific metrics of an engine that
does not exist are recorded in ``Probed.absent`` (and read 0), never
raised as errors.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import env
from .inputs import DIST, KERNEL_SHAPES, SEQ_1D, SEQ_BATCH, SERVE_KINDS
from .trace import Tracer
from .workloads import (
    DistSoi, KernelMix, SeqSoi1d, SeqSoiBatch, ServeMix, numpy_twin, rel_l2,
    soi_inverse_stages_batch, soi_stages_1d, soi_stages_batch, touched,
)

ENGINES = ("thread", "des")


@dataclass
class Probed:
    values: dict[str, float] = field(default_factory=dict)
    absent: set[str] = field(default_factory=set)
    notes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def verify(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"ledger: probe check failed: {what}", file=sys.stderr)


def median_s(fn, reps: int) -> float:
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


# -- machine ---------------------------------------------------------------

def machine(out: Probed, reps: int, quick: bool) -> None:
    """Calibration ceilings: memory bandwidth, complex GEMM rate, numpy FFT rate.

    The three triad arrays together are at least 4x the last-level cache
    (each 4/3 of it), capped at an eighth of available memory each.
    """
    llc = env.llc_bytes()
    want = (32 << 20) if quick else max(-(-4 * llc // 3), 64 << 20)
    nbytes = min(want, env.mem_available_bytes() // 8 or want)
    n = nbytes // 8
    b, c, a = np.full(n, 1.0), np.full(n, 2.0), np.zeros(n)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    # Computed bytes: multiply reads c, writes a; add reads a and b, writes a.
    out.values["machine.triad_gbs"] = 5 * n * 8 / median_s(triad, max(reps, 2)) / 1e9
    del a, b, c
    out.notes["machine"] = {
        "llc_bytes": llc, "triad_array_bytes": n * 8, "triad_arrays": 3,
        "capped": nbytes < want or quick,
    }

    m = 512
    rng = np.random.default_rng(0)
    lhs = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    rhs = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    out.values["machine.zgemm_gflops"] = 8 * m**3 / median_s(lambda: lhs @ rhs, max(reps, 3)) / 1e9

    from repro.dft import fft_flops

    x = rng.standard_normal(1 << 20) + 1j * rng.standard_normal(1 << 20)
    buf = touched(x.shape)
    out.values["machine.numpy_fft_gflops"] = (
        fft_flops(x.size) / median_s(lambda: numpy_twin(np.fft.fft, x, buf), max(reps, 3)) / 1e9
    )


# -- dft ---------------------------------------------------------------------

def dft_layer(out: Probed, seed: int, reps: int) -> None:
    from repro import dft
    from repro.dft.backends import backend_fft_tt, get_backend
    from repro.dft.twiddle import clear_twiddle_cache

    v = out.values
    for label, n in (("p2_1048576", 1 << 20), ("bs_4099", 4099)):
        samples = []
        for _ in range(min(reps, 2)):
            dft.clear_plan_cache()
            clear_twiddle_cache()
            t0 = time.perf_counter()
            dft.plan_for(n)
            samples.append(time.perf_counter() - t0)
        v[f"dft.plan_build_ms.{label}"] = statistics.median(samples) * 1e3

    dft.clear_plan_cache()
    wl = KernelMix(seed)
    wl.construct()
    wl.allocate_twins()
    sweep = wl.op(0)
    out.verify(wl.check(0, sweep), "kernel sweep within tolerance of numpy.fft")
    for label, (n, batch, _) in KERNEL_SHAPES.items():
        t = median_s(lambda: wl._one(label), reps)
        ref = median_s(lambda: wl.numpy_one(label), reps)
        v[f"dft.exec_ms.{label}"] = t * 1e3
        v[f"dft.numpy_ratio.{label}"] = t / ref
        if label in ("p2_4096x64", "p2_1048576x1"):
            v[f"dft.gflops.{label}"] = batch * dft.fft_flops(n) / t / 1e9
    info = dft.plan_cache_info()
    v["dft.plan_cache_hit_share"] = info["hits"] / (info["hits"] + info["misses"])

    # The fused column-transform of the kernel tier on seq_soi_1d's (P, M') block.
    p, m_over = SEQ_1D["p"], SEQ_1D["n"] // SEQ_1D["p"] * 5 // 4
    rng = np.random.default_rng([seed, 11])
    block = rng.standard_normal((p, m_over)) + 1j * rng.standard_normal((p, m_over))
    be = get_backend("repro")
    v[f"dft.exec_tt_ms.p{p}_m{m_over}"] = median_s(lambda: backend_fft_tt(be, block), reps) * 1e3


# -- core --------------------------------------------------------------------

def _stage_seconds(tracer: Tracer) -> dict[str, float]:
    """Median duration per span name."""
    by_name: dict[str, list[float]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s.seconds)
    return {name: statistics.median(vals) for name, vals in by_name.items()}


def core_layer(out: Probed, seed: int, reps: int) -> None:
    from repro.core import (
        clear_soi_plan_cache, error_budget, soi_fft, soi_ifft, soi_plan_cache_info, soi_plan_for,
    )
    from repro.dft import fft_flops
    from repro.dft.flops import soi_convolution_flops, soi_total_flops

    v = out.values
    configs = {"n1048576_p64": (SEQ_1D["n"], SEQ_1D["p"]), "n65536_p16": (SEQ_BATCH["n"], SEQ_BATCH["p"])}
    for label, (n, p) in configs.items():
        samples = []
        for _ in range(reps):
            clear_soi_plan_cache()
            t0 = time.perf_counter()
            soi_plan_for(n, p)
            samples.append(time.perf_counter() - t0)
        v[f"core.plan_build_ms.{label}"] = statistics.median(samples) * 1e3
    clear_soi_plan_cache()
    for _ in range(8):
        for n, p in configs.values():
            soi_plan_for(n, p)
    info = soi_plan_cache_info()
    v["core.plan_cache_hit_share"] = info["hits"] / (info["hits"] + info["misses"])

    # Staged replay of seq_soi_1d, interleaved with the real call.
    wl = SeqSoi1d(seed)
    wl.construct()
    plan, x = wl.plan, wl.x(0)
    whole = wl.op(0)
    tracer = Tracer()
    replay = soi_stages_1d(plan, wl.backend, x, tracer.span)
    out.verify(np.array_equal(replay, whole), "staged replay == soi_fft bitwise (1-D)")
    tracer = Tracer()
    whole_s = []
    for _ in range(reps):
        t0 = time.perf_counter()
        wl.op(0)
        whole_s.append(time.perf_counter() - t0)
        soi_stages_1d(plan, wl.backend, x, tracer.span)
    st = _stage_seconds(tracer)
    stages = {
        "window": st["core.window"], "convolve": st["core.convolve"], "fft_p": st["dft.fft_p"],
        "fft_m": st["dft.fft_m"], "demod": st["core.demod"],
    }
    for name, seconds in stages.items():
        v[f"core.{name}_ms"] = seconds * 1e3
    total = sum(stages.values())
    v["core.convolve_share"] = stages["convolve"] / total
    v["core.stage_closure"] = total / statistics.median(whole_s)
    v["core.convolve_gflops"] = soi_convolution_flops(plan.n_over, plan.b) / stages["convolve"] / 1e9
    v["core.convolve_frac_gemm"] = v["core.convolve_gflops"] / v["machine.zgemm_gflops"]
    v["core.fft_gflops"] = (
        (plan.m_over * fft_flops(plan.p) + plan.p * fft_flops(plan.m_over))
        / (stages["fft_p"] + stages["fft_m"]) / 1e9
    )
    budget = error_budget(plan)["modelled_relative_error"]
    err = rel_l2(whole, np.fft.fft(x))
    v["core.rel_error.n1048576_p64"] = err
    v["core.error_over_budget"] = err / budget
    v["core.flops_over_fft"] = soi_total_flops(plan.n, float(plan.beta), plan.b) / fft_flops(plan.n)
    if not 0.9 <= v["core.stage_closure"] <= 1.1:
        print(f"ledger: core.stage_closure {v['core.stage_closure']:.3f} outside 0.9-1.1", file=sys.stderr)

    # The generic batched path (seq_soi_batch), forward and inverse.
    wb = SeqSoiBatch(seed)
    wb.construct()
    xb = wb.x(0)
    fwd = soi_fft(xb, wb.plan, backend=wb.LIBRARY)
    inv = soi_ifft(fwd, wb.plan, backend=wb.LIBRARY)
    tracer = Tracer()
    out.verify(
        np.array_equal(soi_stages_batch(wb.plan, wb.backend, xb, tracer.span), fwd)
        and np.array_equal(soi_inverse_stages_batch(wb.plan, wb.backend, fwd, tracer.span), inv),
        "staged replay == soi_fft / soi_ifft bitwise (batched)",
    )
    tracer = Tracer()
    for _ in range(reps):
        soi_stages_batch(wb.plan, wb.backend, xb, tracer.span)
    st = _stage_seconds(tracer)
    v["core.batch.convolve_ms"] = st["core.convolve"] * 1e3
    v["core.batch.fft_ms"] = (st["dft.fft_p"] + st["dft.fft_m"]) * 1e3
    v["core.batch.transpose_ms"] = st["core.transpose"] * 1e3
    v["core.batch.demod_ms"] = st["core.demod"] * 1e3
    v["core.ifft_over_fft"] = (
        median_s(lambda: soi_ifft(fwd, wb.plan, backend=wb.LIBRARY), reps)
        / median_s(lambda: soi_fft(xb, wb.plan, backend=wb.LIBRARY), reps)
    )
    v["core.rel_error.n65536_p16"] = rel_l2(fwd, np.fft.fft(xb, axis=-1))


# -- simmpi ------------------------------------------------------------------

def existing_engines(run_spmd) -> list[str]:
    """The engines this checkout's ``run_spmd`` accepts."""
    found = []
    for engine in ENGINES:
        try:
            run_spmd(1, _noop, engine=engine)
        except (ValueError, TypeError):
            continue
        found.append(engine)
    return found


def mark_absent(out: Probed, names, engines) -> None:
    """Record the per-engine metrics of engines that do not exist."""
    for engine in ENGINES:
        if engine not in engines:
            for name in names:
                out.absent.add(f"{name}.{engine}")
                out.values[f"{name}.{engine}"] = 0.0


def _noop(comm):
    return None


def _alltoall(comm, send):
    with comm.phase("alltoall"):
        return comm.alltoall_matrix(send[comm.rank])


def _halo_ring(comm, halos):
    with comm.phase("halo"):
        return comm.sendrecv(halos[comm.rank], dest=(comm.rank - 1) % comm.size,
                             source=(comm.rank + 1) % comm.size)


def _exchange(comm, send, halos):
    _halo_ring(comm, halos)
    return _alltoall(comm, send)


def simmpi_layer(out: Probed, seed: int, reps: int, run_spmd=None) -> None:
    """R=8 ranks moving ``dist_soi``'s halo and all-to-all shapes."""
    from repro.core import SoiPlan

    if run_spmd is None:
        from repro.simmpi import run_spmd

    v = out.values
    ranks = DIST["ranks"]
    plan = SoiPlan(n=DIST["n"], p=DIST["p"])
    rows = plan.m_over // ranks
    rng = np.random.default_rng([seed, 12])
    # Per rank: (ranks, segments per rank, rows) -- what soi_fft_distributed packs.
    send = rng.standard_normal((ranks, ranks, plan.p // ranks, rows)) + 0j
    halos = rng.standard_normal((ranks, plan.halo)) + 0j

    engines = existing_engines(run_spmd)
    timed = ("simmpi.spawn_join_ms", "simmpi.alltoall_ms", "simmpi.halo_ring_ms")
    mark_absent(out, timed, engines)
    counts = {}
    for engine in engines:
        v[f"simmpi.spawn_join_ms.{engine}"] = median_s(
            lambda: run_spmd(ranks, _noop, engine=engine), reps) * 1e3
        v[f"simmpi.alltoall_ms.{engine}"] = median_s(
            lambda: run_spmd(ranks, _alltoall, send, engine=engine), reps) * 1e3
        v[f"simmpi.halo_ring_ms.{engine}"] = median_s(
            lambda: run_spmd(ranks, _halo_ring, halos, engine=engine), reps) * 1e3
        res = run_spmd(ranks, _exchange, send, halos, engine=engine)
        a2a, halo = res.stats.phase("alltoall"), res.stats.phase("halo")
        counts[engine] = {
            "simmpi.alltoall_bytes": a2a.total_bytes,
            "simmpi.alltoall_messages": a2a.total_messages,
            "simmpi.alltoall_rounds": a2a.alltoall_rounds,
            "simmpi.halo_bytes": halo.total_bytes,
            "simmpi.total_bytes": res.stats.total_bytes,
            "simmpi.retransmits": res.stats.total_retransmits,
        }
        out.verify(
            all(np.array_equal(res.values[r][s], send[s][r]) for r in range(ranks) for s in range(ranks)),
            f"alltoall_matrix delivers row r of every sender ({engine})",
        )
    first = engines[0]
    v.update({name: float(count) for name, count in counts[first].items()})
    out.verify(all(c == counts[first] for c in counts.values()), "engines agree on traffic counts")

    v["simmpi.alltoall_gbs"] = counts[first]["simmpi.alltoall_bytes"] / v[f"simmpi.alltoall_ms.{first}"] / 1e6
    v["simmpi.alltoall_frac_triad"] = v["simmpi.alltoall_gbs"] / v["machine.triad_gbs"]
    if set(ENGINES) <= set(engines):
        v["simmpi.des_over_thread"] = (
            sum(v[f"{name}.des"] for name in timed) / sum(v[f"{name}.thread"] for name in timed)
        )
    else:
        out.absent.add("simmpi.des_over_thread")
        v["simmpi.des_over_thread"] = 0.0
    out.notes["engines"] = engines


# -- parallel ----------------------------------------------------------------

def _timed_rank(comm, blocks, plan, fn):
    t0 = time.perf_counter()
    y = fn(comm, blocks[comm.rank], plan)
    return y, time.perf_counter() - t0


def _rank(comm, blocks, arg, fn, **options):
    """``fn`` on this rank's block; *arg* is the plan (SOI) or n (transpose)."""
    return fn(comm, blocks[comm.rank], arg, **options)


def parallel_layer(out: Probed, seed: int, reps: int) -> None:
    from repro.core import SoiPlan, soi_fft
    from repro.parallel import rfft_distributed, split_blocks, transpose_fft_distributed
    from repro.simmpi import FABRIC_HEADER_BYTES, run_spmd

    v = out.values
    wl = DistSoi(seed)
    wl.construct()
    ranks, plan, x, blocks = DIST["ranks"], wl.plan, wl.x(0), wl.blocks[0]
    program = wl._rank_program
    engines = existing_engines(run_spmd)
    mark_absent(out, ("parallel.soi_ms",), engines)
    for engine in engines:
        res = run_spmd(ranks, _timed_rank, blocks, plan, program, engine=engine)
        out.verify(
            np.array_equal(np.concatenate([y for y, _ in res.values]), wl.reference(0)),
            f"dist == seq bitwise ({engine})",
        )
        v[f"parallel.soi_ms.{engine}"] = median_s(
            lambda: run_spmd(ranks, _timed_rank, blocks, plan, program, engine=engine), reps) * 1e3

    # Default engine from here on: rank busy time, variants, baselines.
    walls, busy_max, busy_mean = [], [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        dist = run_spmd(ranks, _timed_rank, blocks, plan, program)
        walls.append(time.perf_counter() - t0)
        busy = [dt for _, dt in dist.values]
        busy_max.append(max(busy))
        busy_mean.append(statistics.fmean(busy))
    soi_ms = statistics.median(walls) * 1e3
    v["parallel.rank_busy_ms.max"] = statistics.median(busy_max) * 1e3
    v["parallel.rank_busy_ms.mean"] = statistics.median(busy_mean) * 1e3
    v["parallel.rank_imbalance"] = v["parallel.rank_busy_ms.max"] / v["parallel.rank_busy_ms.mean"]
    y = np.concatenate([y for y, _ in dist.values])
    v["parallel.seq_eq_dist_bitwise"] = float(np.array_equal(y, wl.reference(0)))
    v["parallel.rel_error"] = rel_l2(y, np.fft.fft(x))

    v["parallel.soi_overlap_ms"] = median_s(
        lambda: run_spmd(ranks, _rank, blocks, plan, program, overlap=True), reps) * 1e3
    v["parallel.transpose_ms"] = median_s(
        lambda: run_spmd(ranks, _rank, blocks, plan.n, transpose_fft_distributed), reps) * 1e3
    half = SoiPlan(n=plan.n // 2, p=plan.p)
    real_blocks = split_blocks(np.ascontiguousarray(x.real), ranks)
    v["parallel.rfft_ms"] = median_s(
        lambda: run_spmd(ranks, _rank, real_blocks, half, rfft_distributed), reps) * 1e3
    v["parallel.dist_over_seq"] = soi_ms / (median_s(lambda: soi_fft(x, plan), reps) * 1e3)
    v["parallel.soi_over_transpose_wall"] = soi_ms / v["parallel.transpose_ms"]

    # Bytes against the Section 7.4 model: one all-to-all of N' points plus
    # one (B - nu) P halo per rank, against three all-to-alls of N points.
    item = plan.dtype.itemsize
    soi_stats = dist.stats
    tr_stats = run_spmd(ranks, _rank, blocks, plan.n, transpose_fft_distributed).stats
    v["parallel.soi_over_transpose_bytes"] = soi_stats.phase("alltoall").total_bytes / tr_stats.total_bytes
    off_rank = (ranks - 1) / ranks
    model = plan.n_over * item * off_rank + ranks * plan.halo * item
    v["parallel.bytes_over_model"] = soi_stats.total_inter_node_bytes / model
    out.notes["parallel"] = {
        "model_offrank_bytes": model,
        "header_bytes_per_message": FABRIC_HEADER_BYTES,
        "soi_over_transpose_bytes_model": plan.n_over / (3 * plan.n),
    }


# -- serve -------------------------------------------------------------------

def serve_layer(out: Probed, seed: int, reps: int) -> None:
    from repro import dft
    from repro.core import clear_soi_plan_cache, soi_fft, soi_plan_cache_info, soi_plan_for
    from repro.parallel import split_blocks, transpose_fft_distributed
    from repro.simmpi import run_spmd

    v = out.values
    requests = 80 * reps
    dft.clear_plan_cache()
    clear_soi_plan_cache()
    wl = ServeMix(seed)
    wl.construct()
    v["serve.start_s"] = wl.start_s
    wl.burst(0, max_ops=32)   # first requests of every kind, untimed
    misses0 = dft.plan_cache_info()["misses"] + soi_plan_cache_info()["misses"]
    seen = len(wl.server.metrics.spans())
    batches0 = len(wl.server.metrics.batches())
    b = wl.burst(32, max_ops=requests)
    out.attempted += b.ops
    out.failed += b.failed
    v["serve.inband_plan_builds"] = float(
        dft.plan_cache_info()["misses"] + soi_plan_cache_info()["misses"] - misses0
    )
    spans = wl.server.metrics.spans()[seen:]
    batches = wl.server.metrics.batches()[batches0:]
    counters = wl.server.admission_counters()
    wl.close()
    v["serve.stop_s"] = wl.stop_s

    by_kind: dict[str, list[float]] = {kind: [] for kind in SERVE_KINDS}
    for k, seconds in enumerate(b.latencies):
        by_kind[wl.request(32 + k)[0]].append(seconds)
    for kind, values in by_kind.items():
        v[f"serve.latency_p50_ms.{kind}"] = p50(values) * 1e3
    v["serve.latency_p95_ms"] = statistics.quantiles(b.latencies, n=20)[-1] * 1e3
    v["serve.submit_us_p50"] = p50(b.submit) * 1e6
    ok = [s for s in spans if s.status == "ok"]
    v["serve.queue_wait_p50_ms"] = p50([s.queue_wait_s for s in ok]) * 1e3
    v["serve.batch_wait_p50_ms"] = p50([s.batch_wait_s for s in ok]) * 1e3
    v["serve.execute_p50_ms"] = p50([s.execute_s for s in ok]) * 1e3
    v["serve.batches"] = float(len(batches))
    v["serve.mean_batch_size"] = statistics.fmean(rec.size for rec in batches)
    v["serve.execute_share"] = sum(rec.t1 - rec.t0 for rec in batches) / (wl.server.config.workers * b.wall)
    v["serve.rejected"] = float(counters["rejected"])
    v["serve.shed"] = float(counters["shed_capacity"])
    v["serve.deadline_missed"] = float(counters["shed_deadline"])
    v["serve.errors"] = float(sum(1 for s in spans if s.status == "error"))

    # The same requests as direct library calls from one thread.
    library = wl.server.config.default_library
    soi_plan = soi_plan_for(SERVE_KINDS["soi"][1], **SERVE_KINDS["soi"][3])
    tr_n, tr_ranks = SERVE_KINDS["transpose"][1], SERVE_KINDS["transpose"][3]["nranks"]

    def direct(i: int) -> None:
        kind, _ = wl.request(i)
        x = wl.payload(i)
        if kind == "dft":
            dft.plan_for(x.size).execute(x)
        elif kind == "soi":
            soi_fft(x, soi_plan, backend=library)
        else:
            run_spmd(tr_ranks, _rank, split_blocks(x, tr_ranks), tr_n,
                     transpose_fft_distributed, backend=library)

    t0 = time.perf_counter()
    for i in range(32, 32 + requests):
        direct(i)
    v["serve.over_direct"] = (b.wall / b.ops) / ((time.perf_counter() - t0) / requests)


# ----------------------------------------------------------------------------

def run_all(seed: int, reps: int, quick: bool) -> Probed:
    """Every layer's probes, in dependency order (machine ceilings first)."""
    out = Probed()
    machine(out, reps, quick)
    dft_layer(out, seed, reps)
    core_layer(out, seed, reps)
    simmpi_layer(out, seed, reps)
    parallel_layer(out, seed, reps)
    serve_layer(out, seed, reps)
    return out
