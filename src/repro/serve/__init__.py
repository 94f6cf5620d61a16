"""FFT-as-a-service: a persistent transform server over the whole repo.

The paper's economics — one low-communication transform amortised over
many callers — only pay off behind a single front door.  This package
is that front door: a long-lived :class:`TransformServer` that accepts
transform requests (size, dtype, forward/inverse, dft/SOI/transpose/
NUFFT backend, priority class, deadline), coalesces same-shape requests
into single batched kernel executes on warm plan caches, and degrades
*structurally* under overload — bounded queue, priority-then-deadline
shedding with typed errors that carry the queue load — while
attributing every request's latency (queue wait / batch formation /
execute) into SLO-style p50/p95/p99 reports.

Quickstart::

    import numpy as np
    from repro.serve import ServeConfig, TransformServer

    with TransformServer(ServeConfig()) as srv:
        x = np.random.default_rng(0).standard_normal(4096) + 0j
        ticket = srv.submit(x, backend="dft", priority="interactive")
        y = ticket.result(timeout=5.0)       # == np.fft.fft(x), bitwise
        print(srv.metrics_report()["classes"]["interactive"]["p99_ms"])

A request runs ``numpy.fft`` as its node-local FFT unless it passes
``library="repro"`` (or the server's ``ServeConfig.default_library``
says so): the one default every entry point shares, picked because
``numpy.fft`` beats this repo's engine at every complex128 shape served.

Correctness is not traded for throughput: the conformance registry
(``python -m repro check``) pins coalesced outputs bitwise-identical to
one-at-a-time execution for every backend, and the overload paths are
tested to resolve every ticket — no hangs, no silent drops.
"""

from .admission import AdmissionController
from .errors import AdmissionRejected, DeadlineExceeded, ServeError, ServerClosed
from .metrics import MetricsLog, RequestSpan, percentile
from .request import PRIORITY_CLASSES, Ticket, TransformRequest, resolve_priority
from .server import ServeConfig, TransformServer

__all__ = [
    "TransformServer",
    "ServeConfig",
    "Ticket",
    "TransformRequest",
    "AdmissionController",
    "MetricsLog",
    "RequestSpan",
    "percentile",
    "PRIORITY_CLASSES",
    "resolve_priority",
    "ServeError",
    "AdmissionRejected",
    "DeadlineExceeded",
    "ServerClosed",
]
