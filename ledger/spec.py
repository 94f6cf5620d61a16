"""What ``BENCHMARK.json`` declares, as the harness and ``compare`` read it."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .env import ROOT

SCHEMA = "repro-ledger/1"
DEFAULT_SEED = 20120

#: Per-layer metrics that are counts, byte totals, model ratios or
#: floating-point results of a seeded input: two runs of one checkout
#: must reproduce them exactly (``aa`` fails on any difference).
EXACT = frozenset({
    "dft.plan_cache_hit_share",
    "core.plan_cache_hit_share",
    "core.rel_error.n1048576_p64",
    "core.rel_error.n65536_p16",
    "core.error_over_budget",
    "core.flops_over_fft",
    "simmpi.alltoall_bytes",
    "simmpi.alltoall_messages",
    "simmpi.alltoall_rounds",
    "simmpi.halo_bytes",
    "simmpi.total_bytes",
    "simmpi.retransmits",
    "parallel.soi_over_transpose_bytes",
    "parallel.bytes_over_model",
    "parallel.seq_eq_dist_bitwise",
    "parallel.rel_error",
    "serve.rejected",
    "serve.shed",
    "serve.deadline_missed",
    "serve.errors",
    "serve.inband_plan_builds",
    "trace.spans",
})


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: float | None  # share of the baseline; None for per-layer metrics


@dataclass(frozen=True)
class Spec:
    workloads: dict[str, str]       # name -> why
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric]
    run_seconds: int


def load() -> Spec:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return Spec(
        workloads={w["name"]: w["why"] for w in doc["workloads"]},
        end_to_end={
            m["name"]: Metric(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]
        },
        per_layer={
            m["name"]: Metric(m["name"], m["unit"], m["better"], None)
            for m in doc["per_layer"]
        },
        run_seconds=doc["run_seconds"],
    )
