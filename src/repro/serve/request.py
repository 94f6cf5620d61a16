"""Requests and tickets: the service's unit of work and its future.

A :class:`TransformRequest` freezes everything the server needs to
execute one transform — payload, direction, backend, node-local
library, priority, absolute deadline — plus the *batch key* that
decides which requests may be coalesced into one kernel dispatch.  Two
requests with equal batch keys are guaranteed (and conformance-tested)
to produce bitwise-identical results whether they execute together or
alone, so the batcher is free to group them purely for throughput.

A :class:`Ticket` is the caller's handle: a single-assignment future
fulfilled by a worker (result), the admission controller (shed), or
shutdown (closed).  Tickets resolve exactly once; ``result()`` either
returns the output array or raises the typed error recorded for the
request — there is no silent-drop path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "PRIORITY_CLASSES",
    "PRIORITY_NAMES",
    "TransformRequest",
    "Ticket",
    "resolve_priority",
]

#: Named priority classes, lowest number = most urgent.  Integers in
#: the same range are accepted directly, so callers can define finer
#: schemes without touching this table.
PRIORITY_CLASSES = {"interactive": 0, "batch": 1, "best_effort": 2}

#: Reverse map for reporting (unknown integers print as "p<n>").
PRIORITY_NAMES = {v: k for k, v in PRIORITY_CLASSES.items()}

#: Backends the server can dispatch to.
BACKENDS = ("dft", "soi", "transpose", "nufft")


def resolve_priority(priority: int | str) -> int:
    """Map a class name or integer to the internal priority number."""
    if isinstance(priority, str):
        try:
            return PRIORITY_CLASSES[priority]
        except KeyError:
            raise ValueError(
                f"unknown priority class {priority!r}; "
                f"known: {sorted(PRIORITY_CLASSES)}"
            ) from None
    p = int(priority)
    if p < 0:
        raise ValueError(f"priority must be >= 0, got {p}")
    return p


def priority_name(priority: int) -> str:
    """Human name of a priority class (``"p<n>"`` for custom integers)."""
    return PRIORITY_NAMES.get(priority, f"p{priority}")


@dataclass
class TransformRequest:
    """One admitted unit of work (internal to the server).

    ``deadline`` is absolute on the server's monotonic clock (``None``
    = no deadline).  ``params`` carries backend-specific configuration
    (SOI: ``p``/``beta``/``window``; transpose: ``nranks``; NUFFT:
    ``points``/``k_modes``/``kind``) already validated by ``submit``.
    """

    rid: int
    payload: np.ndarray
    n: int
    direction: str              # "forward" | "inverse"
    backend: str                # one of BACKENDS
    library: str                # node-local FFT library ("repro" | "numpy")
    priority: int
    deadline: float | None
    params: dict[str, Any]
    ticket: "Ticket"
    t_submit: float = 0.0
    t_admit: float = 0.0
    t_select: float = 0.0
    #: True while the request sits in the admission queue.  The
    #: controller's indexes (class FIFOs, key buckets, deadline heap)
    #: delete lazily: a dequeued entry with ``queued=False`` is stale
    #: and skipped, so removal never costs a scan.
    queued: bool = field(default=False, repr=False, compare=False)

    @property
    def batch_key(self) -> tuple:
        """Coalescing key: requests sharing it may execute as one batch.

        The key must capture *every* input to the kernel other than the
        payload itself, so that grouping can never change a result bit.
        NUFFT requests are keyed by object identity of their point set
        (same-key => same scattered points => stackable); distinct point
        sets still share a dispatch group per (kind, k_modes) but
        execute per-request inside it.
        """
        if self.backend == "dft":
            # Payload dtype is a kernel input: a complex64 batch head
            # must not pull complex128 requests (or vice versa) into a
            # dispatch planned at the wrong precision.
            return ("dft", self.n, self.direction, self.library,
                    np.dtype(self.payload.dtype).str)
        if self.backend == "soi":
            p = self.params
            return (
                "soi", self.n, self.direction, self.library,
                p["p"], p["beta"], p["window"],
            )
        if self.backend == "transpose":
            return ("transpose", self.n, self.library, self.params["nranks"])
        # nufft: per-request execution inside the group; key only needs
        # to identify work the same worker loop can drain together.
        p = self.params
        return ("nufft", p["kind"], p["k_modes"], self.library)


class Ticket:
    """Caller-side future for one submitted request.

    Thread-safe, single-assignment.  ``result(timeout=...)`` blocks for
    fulfilment; on failure it raises the recorded typed error
    (:class:`~repro.serve.errors.AdmissionRejected` for sheds,
    :class:`~repro.serve.errors.DeadlineExceeded` for deadline misses,
    :class:`~repro.serve.errors.ServerClosed` on shutdown, or the
    execution exception itself).
    """

    __slots__ = ("rid", "priority", "_event", "_result", "_error")

    def __init__(self, rid: int, priority: int) -> None:
        self.rid = rid
        self.priority = priority
        self._event = threading.Event()
        self._result: np.ndarray | None = None
        self._error: BaseException | None = None

    def exception(self) -> BaseException | None:
        """The recorded failure, or ``None`` (not done / succeeded)."""
        return self._error

    def result(self, timeout: float | None = None) -> np.ndarray:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.rid} not fulfilled within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    # -- fulfilment (server side) ------------------------------------
    def _fulfill(self, value: np.ndarray) -> None:
        self._result = value
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "pending" if not self._event.is_set()
            else ("failed" if self._error is not None else "done")
        )
        return f"Ticket(rid={self.rid}, priority={self.priority}, {state})"
