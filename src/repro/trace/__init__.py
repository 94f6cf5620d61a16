"""Distributed tracing for the simulated cluster.

Every simulated run can be recorded as per-rank spans — compute,
sends, receives, collectives, and the waits between them made
explicit — stamped with the engine's clock as the run executes.  On
``engine="des"`` that is the virtual clock of the Section-7.4 cost
model, so the timeline is the deterministic DES run itself; on threads
it is the wall clock.  The timeline feeds rollups, critical-path
analysis (which also charges each wait to a phase) and Chrome
trace-event export (Perfetto / ``chrome://tracing``).

Quickstart::

    from repro import SoiPlan, run_spmd, soi_fft_distributed
    from repro.trace import TraceRecorder, rollup, write_chrome_trace

    tracer = TraceRecorder()
    res = run_spmd(8, prog, engine="des", trace=tracer)  # prog: soi_fft_distributed
    tl = tracer.timeline()                  # tl.makespan == res.virtual_time_s
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
    rollup,
)
from .export import ascii_timeline, chrome_trace, write_chrome_trace
from .spans import (
    SPAN_KINDS,
    Span,
    TraceCostModel,
    TraceRecorder,
    VirtualTimeline,
)

__all__ = [
    "SPAN_KINDS",
    "Span",
    "TraceCostModel",
    "TraceRecorder",
    "VirtualTimeline",
    "CriticalPath",
    "alltoall_epochs",
    "critical_path",
    "rollup",
    "ascii_timeline",
    "chrome_trace",
    "write_chrome_trace",
]
