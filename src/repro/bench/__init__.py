"""Benchmark harness shared by the per-figure benchmarks in benchmarks/."""

from .a2a import A2A_BENCH_SCHEMA, run_a2a_bench
from .micro import BENCH_SCHEMA, run_micro
from .overlap import LINK_BANDWIDTH, LINK_LATENCY, OVERLAP_BENCH_SCHEMA, run_overlap_bench
from .resilience import RESILIENCE_BENCH_SCHEMA, run_resilience_bench
from .scale import SCALE_BENCH_SCHEMA, run_scale_bench
from .serve import SERVE_BENCH_SCHEMA, run_serve_bench
from .runner import FigureResult, measured_traffic, run_figure_sweep, trace_rollups
from .tables import bar_chart, format_series, format_table
from .workloads import chirp_signal, multitone, noisy_tones, random_complex, random_real

__all__ = [
    "A2A_BENCH_SCHEMA",
    "run_a2a_bench",
    "BENCH_SCHEMA",
    "run_micro",
    "OVERLAP_BENCH_SCHEMA",
    "run_overlap_bench",
    "RESILIENCE_BENCH_SCHEMA",
    "run_resilience_bench",
    "SCALE_BENCH_SCHEMA",
    "run_scale_bench",
    "SERVE_BENCH_SCHEMA",
    "run_serve_bench",
    "LINK_BANDWIDTH",
    "LINK_LATENCY",
    "FigureResult",
    "measured_traffic",
    "run_figure_sweep",
    "trace_rollups",
    "bar_chart",
    "format_series",
    "format_table",
    "chirp_signal",
    "multitone",
    "noisy_tones",
    "random_complex",
    "random_real",
]
