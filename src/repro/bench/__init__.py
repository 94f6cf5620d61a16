"""Benchmark harness shared by the per-figure benchmarks in benchmarks/."""

from .runner import FigureResult, measured_traffic, run_figure_sweep, trace_rollups
from .tables import bar_chart, format_series, format_table
from .workloads import chirp_signal, multitone, noisy_tones, random_complex

__all__ = [
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
]
