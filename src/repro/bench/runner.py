"""Shared experiment runner for the figure benchmarks.

Each paper figure benchmark does the same three things: run a model
sweep (and, where feasible, a real distributed execution on the
simulated runtime for cross-validation), print the paper-shaped table,
and hand structured results to asserting tests.  This module hosts the
common machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..cluster.fabrics import ClusterSpec
from ..core.plan import SoiPlan
from ..parallel import soi_fft_distributed, split_blocks, transpose_fft_distributed
from ..perf.weakscaling import WeakScalingSweep, run_sweep
from ..simmpi import run_spmd
from .tables import format_series, format_table
from .workloads import random_complex

__all__ = ["FigureResult", "run_figure_sweep", "measured_traffic", "trace_rollups"]


@dataclass
class FigureResult:
    """One regenerated figure: the sweep, its printed form, and extras."""

    name: str
    sweep: WeakScalingSweep
    text: str
    extras: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text


def run_figure_sweep(
    name: str,
    cluster: ClusterSpec,
    node_counts: list[int],
    libraries: list[str],
    points_per_node: int = 2**28,
    b: int = 72,
    speedup_over: str = "MKL",
) -> FigureResult:
    """Run a weak-scaling sweep and render it the way the figure does:
    GFLOPS bars per library plus the SOI speedup line."""
    sweep = run_sweep(
        cluster, node_counts, libraries=libraries, points_per_node=points_per_node, b=b
    )
    headers = ["nodes", "N (points)"] + [f"{lib} GFLOPS" for lib in libraries]
    rows = []
    for n in node_counts:
        row: list[Any] = [n, points_per_node * n]
        row += [sweep.points[(lib, n)].gflops for lib in libraries]
        rows.append(row)
    table = format_table(headers, rows, title=f"{name} — {cluster.description}")
    speed = format_series(
        f"speedup SOI over {speedup_over}",
        node_counts,
        sweep.speedup_series(speedup_over),
    )
    return FigureResult(
        name, sweep, table + "\n" + speed, extras={"trace": trace_rollups()}
    )


_TRACE_ROLLUP_CACHE: dict[tuple[int, int], dict[str, Any]] = {}


def trace_rollups(n: int = 1 << 12, nranks: int = 4, seed: int = 0) -> dict[str, Any]:
    """Virtual-timeline rollups for a small traced DES run of both algorithms.

    Attached to every :class:`FigureResult` as ``extras["trace"]`` so the
    figure payloads carry the structural story behind the modelled bars —
    one all-to-all epoch for SOI, three for the six-step baseline, with
    per-kind time and the critical path (see :mod:`repro.trace`), priced
    by the DES engine's default cost model.  Cached
    per ``(n, nranks)``: the rollup is a pure function of the problem
    shape, and figure sweeps share it.
    """
    key = (n, nranks)
    if key not in _TRACE_ROLLUP_CACHE:
        from ..trace import TraceRecorder, rollup

        x = random_complex(n, seed)
        blocks = split_blocks(x, nranks)
        plan = SoiPlan(n=n, p=max(nranks, 8))
        out: dict[str, Any] = {}
        for name, fn in (
            ("soi", lambda comm: soi_fft_distributed(comm, blocks[comm.rank], plan)),
            (
                "transpose",
                lambda comm: transpose_fft_distributed(comm, blocks[comm.rank], n),
            ),
        ):
            recorder = TraceRecorder()
            run_spmd(nranks, fn, engine="des", trace=recorder)
            out[name] = rollup(recorder.timeline())
        _TRACE_ROLLUP_CACHE[key] = out
    return _TRACE_ROLLUP_CACHE[key]


def measured_traffic(
    n: int, nranks: int, plan: SoiPlan | None = None, seed: int = 0
) -> dict[str, Any]:
    """Run BOTH distributed algorithms for real and return traffic facts.

    Used by the communication-volume benchmark and by tests to check the
    paper's structural claims on actual executions rather than models.
    """
    x = random_complex(n, seed)
    blocks = split_blocks(x, nranks)
    soi_plan = plan if plan is not None else SoiPlan(n=n, p=max(nranks, 8))
    res_soi = run_spmd(
        nranks, lambda comm: soi_fft_distributed(comm, blocks[comm.rank], soi_plan)
    )
    res_std = run_spmd(
        nranks, lambda comm: transpose_fft_distributed(comm, blocks[comm.rank], n)
    )
    ref = np.fft.fft(x)
    return {
        "n": n,
        "nranks": nranks,
        "plan": soi_plan,
        "soi_result": np.concatenate(res_soi.values),
        "std_result": np.concatenate(res_std.values),
        "reference": ref,
        "soi_stats": res_soi.stats,
        "std_stats": res_std.stats,
        "soi_alltoall_rounds": res_soi.stats.alltoall_rounds,
        "std_alltoall_rounds": res_std.stats.alltoall_rounds,
        "soi_offnode_bytes": res_soi.stats.total_offnode_bytes,
        "std_offnode_bytes": res_std.stats.total_offnode_bytes,
    }
