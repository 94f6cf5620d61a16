"""In-memory spans around calls into the program's layers.

A span is named ``<layer>.<what>``; the layer is the part before the
first dot (``harness`` for the benchmark's own glue).  Spans are kept in
memory and written out as Chrome-trace JSON when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: int | None
    lane: int           # Chrome-trace thread row
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; safe to call from rank threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._tls = threading.local()

    def begin(self, name: str, parent: Span | None = None, op: int | None = None,
              lane: int | None = None) -> Span:
        """Open a span explicitly (for ops that overlap on one thread);
        *op* and *lane* default to the parent's."""
        if op is None and parent is not None:
            op = parent.op
        if lane is None:
            lane = parent.lane if parent is not None else 0
        rec = Span(
            next(self._ids), name, None if parent is None else parent.sid, op, lane,
            time.perf_counter(),
        )
        self.spans.append(rec)
        return rec

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()

    @contextmanager
    def span(self, name: str, parent: Span | None = None, op: int | None = None,
             lane: int | None = None):
        """A nested span; *parent* defaults to the enclosing span of this
        thread.  Yields the span so another thread (a rank) can name it."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        if parent is None and stack:
            parent = stack[-1]
        rec = self.begin(name, parent, op, lane)
        stack.append(rec)
        try:
            yield rec
        finally:
            self.end(rec)
            stack.pop()


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.sid] = s.seconds - covered
    return out


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (concurrent rank spans add up)."""
    own = self_seconds(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.sid]
    return out


def write_chrome_trace(spans: list[Span], path: Path, meta: dict) -> None:
    """Write *spans* for chrome://tracing or ui.perfetto.dev."""
    t0 = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": s.lane,
            "ts": (s.start - t0) * 1e6, "dur": s.seconds * 1e6,
            "args": {"id": s.sid, "parent": s.parent, "op": s.op},
        }
        for s in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "metadata": meta}))
