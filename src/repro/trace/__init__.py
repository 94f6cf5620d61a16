"""Distributed tracing for the simulated cluster.

Every simulated run can be recorded as per-rank spans — compute timed
by the Section-7.4 cost model, communication by the interconnect model,
waits made explicit — and replayed onto a deterministic virtual
timeline for rollups, critical-path analysis (which also charges each
wait to a phase) and Chrome trace-event export (Perfetto /
``chrome://tracing``).

Quickstart::

    from repro import SoiPlan, run_spmd, soi_fft_distributed
    from repro.trace import TraceRecorder, rollup, write_chrome_trace

    tracer = TraceRecorder()
    res = run_spmd(8, prog, trace=tracer)   # prog calls soi_fft_distributed
    tl = tracer.timeline()
    print(rollup(tl)["alltoall_epochs"])    # SOI: 1, six-step baseline: 3
    write_chrome_trace(tl, "soi.json")      # open in ui.perfetto.dev

Tracing is zero-cost when off and bit-transparent when on: traced and
untraced runs produce identical FFT outputs and identical
:class:`~repro.simmpi.stats.TrafficStats`.
"""

from .analysis import (
    CriticalPath,
    alltoall_epochs,
    critical_path,
    inflight_profile,
    rollup,
)
from .export import aggregate, ascii_timeline, chrome_trace, write_chrome_trace
from .spans import (
    SPAN_KINDS,
    Span,
    TraceCostModel,
    TraceEvent,
    TraceRecorder,
    VirtualTimeline,
)

__all__ = [
    "SPAN_KINDS",
    "Span",
    "TraceCostModel",
    "TraceEvent",
    "TraceRecorder",
    "VirtualTimeline",
    "CriticalPath",
    "alltoall_epochs",
    "critical_path",
    "inflight_profile",
    "rollup",
    "aggregate",
    "ascii_timeline",
    "chrome_trace",
    "write_chrome_trace",
]
