"""Timeline analysis: rollups, critical paths, all-to-all epochs.

The virtual timeline is a rank × phase DAG: leaf spans tile each rank's
timeline, and cross-rank edges run from a send to the wait it releases
(and from a barrier's last arriver to everyone it releases).  This
module answers the questions the paper's evaluation asks of it:

- *where does the time go?* — :func:`rollup` aggregates span durations
  per kind / phase / rank into one compact, JSON-safe dict;
- *what limits the makespan?* — :func:`critical_path` walks the DAG
  backwards from the last-finishing span, jumping from each wait to the
  send that released it, yielding the dependency chain whose durations
  (plus wire latency on the crossed edges) account for the makespan;
- *how many global exchanges?* — :func:`alltoall_epochs` counts the
  all-to-all epochs on the timeline, the paper's one-versus-three
  structural claim made directly visible.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .spans import Span, VirtualTimeline

__all__ = [
    "CriticalPath",
    "alltoall_epochs",
    "critical_path",
    "rollup",
]


def alltoall_epochs(tl: VirtualTimeline) -> int:
    """Number of all-to-all epochs on the timeline.

    An epoch is one collective all-to-all round: every participating
    rank carries one enclosing ``collective`` span per round, so the
    per-rank count *is* the epoch count (the maximum guards against
    ranks that died mid-run).
    """
    per_rank: dict[int, int] = defaultdict(int)
    for s in tl.spans:
        if s.kind == "collective" and not s.leaf and s.name == "alltoall":
            per_rank[s.rank] += 1
    return max(per_rank.values(), default=0)


@dataclass
class CriticalPath:
    """The longest dependency chain through the rank × phase DAG.

    ``spans`` is in time order; ``network_s`` is the wire latency summed
    over the cross-rank edges the path traverses.  ``coverage`` is the
    fraction of the makespan the chain explains — by construction close
    to 1.0 (leaf spans tile every rank and waits are bridged through
    their releasing sends), so a low coverage flags a malformed trace.
    """

    spans: list[Span]
    makespan: float
    network_s: float
    #: Wait durations the backward walk bridged through (per phase).
    #: Bridged waits are replaced on the path by their releasing send's
    #: chain, so they never appear in ``spans`` — this records how long
    #: the critical chain sat blocked in each phase regardless.
    bridged_wait_s: dict[str, float] = field(default_factory=dict)

    @property
    def length_s(self) -> float:
        return sum(s.duration for s in self.spans) + self.network_s

    @property
    def coverage(self) -> float:
        if self.makespan <= 0.0:
            return 1.0
        return self.length_s / self.makespan

    def by_kind_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.kind] += s.duration
        if self.network_s > 0.0:
            out["network"] += self.network_s
        return dict(out)

    def wait_by_phase_s(self) -> dict[str, float]:
        """Seconds the critical chain spent stalled in communication,
        per phase.

        Counts time the path's rank could not compute because it was
        inside a communication call: blocking ``send`` spans,
        ``wait``/``retransmit`` spans remaining on the path, and the
        bridged waits the backward walk jumped through.  Nonblocking
        ``isend`` posts are *not* stalls — the CPU returns immediately
        and the wire time runs on the virtual NIC.  This is the overlap
        acceptance metric: pipelining must shrink the all-to-all stall
        the critical chain carries, not just move it off-path.
        """
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.kind in ("wait", "send", "retransmit"):
                out[s.phase] += s.duration
        for phase, secs in self.bridged_wait_s.items():
            out[phase] += secs
        return dict(out)


def critical_path(tl: VirtualTimeline) -> CriticalPath:
    """Extract the critical path (see :class:`CriticalPath`).

    Backward walk from the globally last-finishing leaf span.  At a wait
    span the true dependency is the send that released it, so the walk
    jumps to the sender's rank and charges the bridged gap (wire
    latency) to ``network_s``; everywhere else it follows the rank's own
    tiled predecessor.  Wait spans with no recorded cause (an unmatched
    receive under raw-substrate faults) stay on the path as genuine
    blocked time.
    """
    leaves = tl.leaf_spans()
    if not leaves:
        return CriticalPath(spans=[], makespan=0.0, network_s=0.0)
    by_uid = tl.by_uid()
    pred: dict[int, int] = {}
    for rank in tl.ranks:
        ordered = sorted(
            (s for s in leaves if s.rank == rank), key=lambda s: (s.t0, s.t1)
        )
        for a, b in zip(ordered, ordered[1:]):
            pred[b.uid] = a.uid

    cur = max(leaves, key=lambda s: (s.t1, s.rank))
    path: list[Span] = []
    network = 0.0
    bridged: dict[str, float] = defaultdict(float)
    seen: set[int] = set()
    while cur.uid not in seen:
        seen.add(cur.uid)
        if cur.kind == "wait" and cur.cause is not None:
            nxt = by_uid.get(cur.cause)
            if nxt is not None:
                network += max(0.0, cur.t1 - nxt.t1)
                bridged[cur.phase] += cur.duration
                cur = nxt
                continue
        path.append(cur)
        if cur.t0 <= 0.0:
            break
        if cur.kind == "collective" and cur.cause is not None:
            # Barrier: the chain continues through the last arriver.
            nxt = by_uid.get(cur.cause)
            if nxt is not None and nxt.uid not in seen:
                cur = nxt
                continue
        p = pred.get(cur.uid)
        if p is None:
            break
        cur = by_uid[p]
    path.reverse()
    return CriticalPath(
        spans=path,
        makespan=tl.makespan,
        network_s=network,
        bridged_wait_s=dict(bridged),
    )


def rollup(tl: VirtualTimeline) -> dict:
    """Compact, JSON-safe aggregate of one timeline.

    This is the machine-readable form tests and benchmarks assert on —
    makespan, per-kind / per-phase / per-rank second totals, wait
    fraction, all-to-all epoch count, and the critical-path summary.
    """
    leaves = tl.leaf_spans()
    ranks = tl.ranks
    by_kind: dict[str, float] = defaultdict(float)
    by_phase: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    by_rank: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in leaves:
        by_kind[s.kind] += s.duration
        by_phase[s.phase][s.kind] += s.duration
        by_rank[str(s.rank)][s.kind] += s.duration
    makespan = tl.makespan
    wait_s = by_kind.get("wait", 0.0)
    busy_total = makespan * len(ranks)
    cp = critical_path(tl)
    return {
        "ranks": len(ranks),
        "span_count": len(tl.spans),
        "makespan_s": makespan,
        "alltoall_epochs": alltoall_epochs(tl),
        "by_kind_s": dict(by_kind),
        "by_phase_s": {p: dict(k) for p, k in sorted(by_phase.items())},
        "by_rank_s": {r: dict(k) for r, k in sorted(by_rank.items())},
        "wait_s": wait_s,
        "wait_fraction": (wait_s / busy_total) if busy_total > 0.0 else 0.0,
        "retransmits": sum(1 for s in leaves if s.kind == "retransmit"),
        "critical_path": {
            "spans": len(cp.spans),
            "length_s": cp.length_s,
            "network_s": cp.network_s,
            "coverage": cp.coverage,
            "by_kind_s": cp.by_kind_s(),
            "wait_by_phase_s": cp.wait_by_phase_s(),
        },
    }
