"""Per-request latency attribution and SLO-style percentile reports.

Every request leaves behind one :class:`RequestSpan` splitting its life
into the three intervals that matter operationally:

- **queue wait** — admitted, waiting to be picked (``t_select -
  t_admit``): admission/backlog cost;
- **batch wait** — picked, waiting for the kernel to start
  (``t_exec0 - t_select``): batch-formation cost;
- **execute** — inside the coalesced kernel (``t_exec1 - t_exec0``),
  shared with its batch-mates.

The log aggregates spans into the SLO report: p50/p95/p99 of total
latency per priority class, mean stage attribution, throughput, batch
shape, and the structured-overload counters — every number the
acceptance criteria name, JSON-safe.  Percentiles use the nearest-rank
method (a real observed latency, never an interpolated one).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .request import TransformRequest, priority_name

__all__ = ["RequestSpan", "MetricsLog", "percentile"]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list (q in [0,100])."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 100)))  # ceil
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass(frozen=True)
class RequestSpan:
    """One request's fully-attributed lifetime (times on the server's
    monotonic clock; ``t_select``/``t_exec*`` are 0 for never-executed
    requests)."""

    rid: int
    backend: str
    library: str
    n: int
    priority: int
    status: str               # ok | shed | deadline | closed | error
    worker: int = -1
    batch_id: int = -1
    batch_size: int = 0
    t_submit: float = 0.0
    t_admit: float = 0.0
    t_select: float = 0.0
    t_exec0: float = 0.0
    t_exec1: float = 0.0
    t_done: float = 0.0

    @property
    def queue_wait_s(self) -> float:
        return max(0.0, self.t_select - self.t_admit) if self.t_select else 0.0

    @property
    def batch_wait_s(self) -> float:
        return max(0.0, self.t_exec0 - self.t_select) if self.t_exec0 else 0.0

    @property
    def execute_s(self) -> float:
        return max(0.0, self.t_exec1 - self.t_exec0)

    @property
    def total_s(self) -> float:
        return max(0.0, self.t_done - self.t_submit)


@dataclass
class _BatchRecord:
    batch_id: int
    worker: int
    key: tuple
    size: int
    t0: float
    t1: float


class MetricsLog:
    """Thread-safe span/batch sink with SLO aggregation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[RequestSpan] = []
        self._batches: list[_BatchRecord] = []
        self._t_start: float | None = None
        self._t_last: float = 0.0

    # -- recording ----------------------------------------------------
    def record(self, span: RequestSpan) -> None:
        with self._lock:
            if self._t_start is None:
                self._t_start = span.t_submit
            else:
                self._t_start = min(self._t_start, span.t_submit)
            self._t_last = max(self._t_last, span.t_done)
            self._spans.append(span)

    def record_many(self, spans: list[RequestSpan]) -> None:
        """Append a whole batch of spans under one lock acquisition —
        the per-request bookkeeping cost is what coalescing amortises,
        so the hot path must not pay K lock round-trips."""
        if not spans:
            return
        with self._lock:
            for span in spans:
                if self._t_start is None:
                    self._t_start = span.t_submit
                else:
                    self._t_start = min(self._t_start, span.t_submit)
                self._t_last = max(self._t_last, span.t_done)
            self._spans.extend(spans)

    def record_batch(
        self, batch_id: int, worker: int, key: tuple, size: int,
        t0: float, t1: float,
    ) -> None:
        with self._lock:
            self._batches.append(_BatchRecord(batch_id, worker, key, size, t0, t1))

    @staticmethod
    def span_for(req: TransformRequest, status: str, now: float, *,
                 worker: int = -1, batch_id: int = -1, batch_size: int = 0,
                 t_exec0: float = 0.0, t_exec1: float = 0.0) -> RequestSpan:
        """Build the span for *req* in terminal state *status* at *now*."""
        return RequestSpan(
            rid=req.rid,
            backend=req.backend,
            library=req.library,
            n=req.n,
            priority=req.priority,
            status=status,
            worker=worker,
            batch_id=batch_id,
            batch_size=batch_size,
            t_submit=req.t_submit,
            t_admit=req.t_admit,
            t_select=req.t_select,
            t_exec0=t_exec0,
            t_exec1=t_exec1,
            t_done=now,
        )

    # -- views --------------------------------------------------------
    def spans(self) -> list[RequestSpan]:
        with self._lock:
            return list(self._spans)

    def batches(self) -> list[_BatchRecord]:
        with self._lock:
            return list(self._batches)

    # -- aggregation --------------------------------------------------
    def slo_report(self, admission_counters: dict[str, int] | None = None) -> dict:
        """The SLO report: per-class percentiles, attribution, shape.

        ``admission_counters`` (from the controller) folds the
        structured-overload counts into the same payload so a single
        document answers "what happened" under load.
        """
        with self._lock:
            spans = list(self._spans)
            batches = list(self._batches)
            t0 = self._t_start or 0.0
            t1 = self._t_last
        ok = [s for s in spans if s.status == "ok"]
        wall = max(t1 - t0, 1e-9)
        classes: dict[str, dict] = {}
        for prio in sorted({s.priority for s in spans}):
            mine = [s for s in spans if s.priority == prio]
            done = [s for s in mine if s.status == "ok"]
            lat = sorted(s.total_s for s in done)
            classes[priority_name(prio)] = {
                "priority": prio,
                "submitted": len(mine),
                "completed": len(done),
                "rejected": sum(1 for s in mine if s.status == "rejected"),
                "shed_capacity": sum(1 for s in mine if s.status == "shed"),
                "shed_deadline": sum(1 for s in mine if s.status == "deadline"),
                "errors": sum(1 for s in mine if s.status == "error"),
                "p50_ms": percentile(lat, 50) * 1e3,
                "p95_ms": percentile(lat, 95) * 1e3,
                "p99_ms": percentile(lat, 99) * 1e3,
                "mean_queue_ms": _mean(s.queue_wait_s for s in done) * 1e3,
                "mean_batch_ms": _mean(s.batch_wait_s for s in done) * 1e3,
                "mean_execute_ms": _mean(s.execute_s for s in done) * 1e3,
            }
        sizes = [b.size for b in batches]
        report = {
            "requests": len(spans),
            "completed": len(ok),
            "wall_s": wall,
            "throughput_rps": len(ok) / wall,
            "batches": len(batches),
            "mean_batch_size": _mean(sizes),
            "max_batch_size": max(sizes, default=0),
            "classes": classes,
        }
        if admission_counters is not None:
            report["admission"] = dict(admission_counters)
        return report


def _mean(values) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0
