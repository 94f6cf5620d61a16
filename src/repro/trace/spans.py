"""Per-rank spans stamped on the engine's clock as a run executes.

The communicator (:mod:`repro.simmpi`) calls the recorder's hooks as
events happen, and each hook stamps its span with ``world.clock()``
after the engine has charged the event.  On ``engine="des"`` that clock
is the rank's virtual clock, advanced by the Section-7.4 cost model
(:class:`TraceCostModel`: compute at the paper's measured flop
efficiencies, messages through a per-sender NIC onto the
:mod:`repro.cluster` fabric, barriers by the synchronisation cost), so
the timeline *is* the DES run: its makespan is
``SpmdResult.virtual_time_s``.  On ``engine="thread"`` the clock is
``time.monotonic()`` and the same structure lands on the wall clock.

A leaf span runs from the rank's previous stamp to now, so leaf spans
tile each rank's timeline.  A receive stamps the time its rank spent
blocked as a *wait* span followed by a zero-length ``recv``; both name
their cause, the matching send, by per-channel ordinals (the sender's
k-th send on a ``(src, dst, tag)`` channel pairs with the receiver's
k-th receive).  Causes and barrier releases are resolved when
:meth:`TraceRecorder.timeline` reads the spans, so a receive stamped
before its send (a thread-engine race) still pairs.

Tracing is zero-cost when off (one ``is None`` check per communicator
operation) and bit-transparent when on: hooks only *read* payload sizes
and the clock — they never touch payload bytes, channel contents or
:class:`~repro.simmpi.stats.TrafficStats`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..cluster.machine import XEON_E5_2670_NODE, NodeSpec
from ..cluster.topology import FatTree, Topology

__all__ = [
    "SPAN_KINDS",
    "Span",
    "TraceCostModel",
    "TraceRecorder",
    "VirtualTimeline",
]

#: Span kinds a timeline can contain.
SPAN_KINDS = (
    "compute",
    "send",
    "isend",
    "recv",
    "collective",
    "wait",
    "retransmit",
    "recovery",
)


@dataclass(frozen=True)
class TraceCostModel:
    """The DES engine's cost parameters (node + fabric, Section 7.4 style).

    Compute runs at the paper's measured efficiencies (FFT stages ~10%
    of node peak, the SOI convolution ~40%); inter-node messages
    serialise onto the fabric's injection channel at the all-to-all
    efficiency of the topology model.  Pass one to
    ``run_spmd(engine="des", cost_model=...)``.
    """

    node: NodeSpec = XEON_E5_2670_NODE
    fabric: Topology = field(default_factory=lambda: FatTree())
    fft_efficiency: float = 0.10
    conv_efficiency: float = 0.40
    latency_s: float = 2e-6  # one-way wire latency per message
    delivery_s: float = 1e-7  # receiver-side handoff per message
    barrier_s: float = 5e-6  # synchronisation cost once all ranks arrive
    post_overhead_s: float = 5e-7  # CPU cost of posting one send
    #: Shared-memory handoff per same-node message (zero-copy view pass).
    intra_node_s: float = 2e-7

    def compute_time(self, flops: float, kind: str = "fft") -> float:
        """Seconds to execute *flops* at the node's effective rate."""
        eff = self.conv_efficiency if kind == "conv" else self.fft_efficiency
        return max(float(flops), 0.0) / (self.node.dp_gflops * 1e9 * eff)

    def wire_time(self, nbytes: int) -> float:
        """Seconds one message of *nbytes* occupies the injection channel."""
        bw = self.fabric.injection_bandwidth() * self.fabric.alltoall_efficiency
        return max(int(nbytes), 0) / bw


@dataclass(frozen=True)
class Span:
    """One interval on a rank's timeline.

    ``leaf`` spans tile each rank's timeline exactly (every second of a
    rank is inside exactly one leaf span); non-leaf spans are enclosing
    collective markers (e.g. the all-to-all epoch that brackets its
    constituent sends and receives).  ``cause`` names the cross-rank
    dependency (the uid of the send that a wait or recv span blocked
    on, or of the last arriver's span for a barrier).
    """

    uid: int
    rank: int
    kind: str
    name: str
    phase: str
    t0: float
    t1: float
    nbytes: int = 0
    flops: float = 0.0
    peer: int = -1
    leaf: bool = True
    cause: int | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class VirtualTimeline:
    """The recorded run: every span of every rank.

    ``degraded``/``failed_ranks`` describe ABFT survival runs: ranks
    that died mid-run and whose work the survivors reconstructed (their
    reconstruction appears as ``recovery`` spans).
    """

    spans: list[Span]
    degraded: bool = False
    failed_ranks: tuple[int, ...] = ()

    @property
    def ranks(self) -> list[int]:
        return sorted({s.rank for s in self.spans})

    @property
    def makespan(self) -> float:
        return max((s.t1 for s in self.spans if s.leaf), default=0.0)

    def leaf_spans(self) -> list[Span]:
        return [s for s in self.spans if s.leaf]

    def rank_spans(self, rank: int, leaf_only: bool = False) -> list[Span]:
        """This rank's spans in paint order (parents before children;
        leaves, zero-length ones included, in the order they ran)."""
        out = [
            s
            for s in self.spans
            if s.rank == rank and (s.leaf or not leaf_only)
        ]
        out.sort(key=lambda s: (s.t0, s.leaf, 0.0 if s.leaf else -s.duration))
        return out

    def by_uid(self) -> dict[int, Span]:
        return {s.uid: s for s in self.spans}


class _Stamp(NamedTuple):
    """One recorded span before :meth:`TraceRecorder.timeline` numbers it.

    ``link`` ties it to other ranks: ``("send", chan)`` on a send,
    ``("recv", chan)`` on a wait or recv (its cause is that channel
    ordinal's send), ``("barrier", k)`` on the rank's k-th barrier.
    """

    kind: str
    name: str
    phase: str
    t0: float
    t1: float
    nbytes: int = 0
    flops: float = 0.0
    peer: int = -1
    leaf: bool = True
    link: tuple | None = None


class TraceRecorder:
    """Thread-safe per-rank span recorder (see module docstring).

    One recorder instance is shared by every rank of a run — attach it
    via ``run_spmd(..., trace=recorder)``, which sets tracing for the
    whole world.  After the run, :meth:`timeline` returns the
    recorded spans as a :class:`VirtualTimeline`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clock = time.monotonic
        self._origin = 0.0
        self._stamps: dict[int, list[_Stamp]] = defaultdict(list)
        self._last: dict[int, float] = defaultdict(float)
        self._open: dict[int, list[tuple[float, str, str]]] = defaultdict(list)
        self._send_counts: dict[tuple, int] = defaultdict(int)
        self._recv_counts: dict[tuple, int] = defaultdict(int)
        self._barriers: dict[int, int] = defaultdict(int)
        self._failed_ranks: set[int] = set()

    # ---- lifecycle -------------------------------------------------------

    def attach(self, world: Any) -> None:
        """Install this recorder on a :class:`~repro.simmpi.transport.World`.

        Idempotent so every rank of an SPMD function may call it; a
        world can carry at most one recorder.  The first attach reads
        the world's clock: its ``clock()`` now is the timeline's zero.
        """
        with self._lock:
            current = getattr(world, "tracer", None)
            if current is None:
                world.tracer = self
                self._clock = world.clock
                self._origin = world.clock()
            elif current is not self:
                raise ValueError(
                    "world already has a different TraceRecorder attached"
                )

    def new_run(self) -> None:
        """Drop all recorded spans (called on SPMD restart attempts so
        the timeline describes the successful attempt)."""
        with self._lock:
            for state in (
                self._stamps, self._last, self._open, self._send_counts,
                self._recv_counts, self._barriers, self._failed_ranks,
            ):
                state.clear()

    @property
    def nevents(self) -> int:
        with self._lock:
            return sum(len(stamps) for stamps in self._stamps.values())

    @property
    def degraded(self) -> bool:
        """Whether any rank failure was observed during recording."""
        with self._lock:
            return bool(self._failed_ranks)

    @property
    def failed_ranks(self) -> tuple[int, ...]:
        """Ranks reported dead via :meth:`record_failure`, sorted."""
        with self._lock:
            return tuple(sorted(self._failed_ranks))

    # ---- recording hooks (called by the communicator) --------------------

    def _now(self) -> float:
        return self._clock() - self._origin

    def _stamp_locked(
        self, rank: int, now: float, kind: str, name: str, phase: str, **kw: Any
    ) -> None:
        """Append *rank*'s leaf span from its previous stamp to *now*."""
        self._stamps[rank].append(
            _Stamp(kind, name, phase, self._last[rank], now, **kw)
        )
        self._last[rank] = now

    def _record_send(
        self, kind: str, phase: str, src: int, dst: int, tag: Any, nbytes: int
    ) -> None:
        now = self._now()
        with self._lock:
            key = (src, dst, tag)
            idx = self._send_counts[key]
            self._send_counts[key] = idx + 1
            self._stamp_locked(
                src, now, kind, f"{kind}->{dst}", phase,
                nbytes=int(nbytes), peer=dst, link=("send", key + (idx,)),
            )

    def record_send(
        self, phase: str, src: int, dst: int, tag: Any, nbytes: int
    ) -> None:
        """A blocking send, stamped once the message is on the wire."""
        self._record_send("send", phase, src, dst, tag, nbytes)

    def record_isend(
        self, phase: str, src: int, dst: int, tag: Any, nbytes: int
    ) -> None:
        """A nonblocking send post.  Shares the per-channel ordinal family
        with :meth:`record_send`: the receiver's k-th receive matches the
        channel's k-th logical send, blocking or not."""
        self._record_send("isend", phase, src, dst, tag, nbytes)

    def record_recv(
        self, phase: str, src: int, dst: int, tag: Any, nbytes: int
    ) -> None:
        """A receive claimed by *dst*: the time it blocked, then the recv."""
        now = self._now()
        with self._lock:
            key = (src, dst, tag)
            link = ("recv", key + (self._recv_counts[key],))
            self._recv_counts[key] += 1
            if now > self._last[dst]:
                self._stamp_locked(
                    dst, now, "wait", f"wait<-{src}", phase, peer=src, link=link
                )
            self._stamp_locked(
                dst, now, "recv", f"recv<-{src}", phase,
                nbytes=int(nbytes), peer=src, link=link,
            )

    def record_compute(
        self, phase: str, rank: int, name: str, flops: float, kind: str = "fft"
    ) -> None:
        """Local compute of *flops*, stamped after the engine charged it
        (``kind`` picked the DES cost-model efficiency)."""
        now = self._now()
        with self._lock:
            self._stamp_locked(rank, now, "compute", name, phase, flops=float(flops))

    def record_retransmit(self, phase: str, src: int, dst: int, nbytes: int) -> None:
        """A redelivery request, on the *receiver's* timeline (the rank
        that waited out the loss)."""
        now = self._now()
        with self._lock:
            self._stamp_locked(
                dst, now, "retransmit", f"retransmit<-{src}", phase,
                nbytes=int(nbytes), peer=src,
            )

    def record_failure(self, phase: str, rank: int, dead: int) -> None:
        """Rank *rank* observed peer *dead* as failed during *phase*.

        Marks the timeline degraded and drops a zero-length marker on
        the observer's track so the detection point is visible.
        """
        now = self._now()
        with self._lock:
            self._failed_ranks.add(int(dead))
            self._stamps[rank].append(
                _Stamp("recovery", f"detected rank {dead} dead", phase, now, now,
                       peer=int(dead), leaf=False)
            )

    def record_recovery(
        self, phase: str, rank: int, name: str, nbytes: int = 0, flops: float = 0.0
    ) -> None:
        """ABFT reconstruction work (recompute and/or block transfer)
        executed by *rank* on behalf of a dead peer."""
        now = self._now()
        with self._lock:
            self._stamp_locked(
                rank, now, "recovery", name, phase,
                nbytes=int(nbytes), flops=float(flops),
            )

    def record_collective_begin(self, phase: str, rank: int, name: str) -> None:
        with self._lock:
            self._open[rank].append((self._last[rank], name, phase))

    def record_collective_end(self, phase: str, rank: int, name: str) -> None:
        """Close the innermost collective: a non-leaf span over the leaf
        spans *rank* stamped inside it."""
        with self._lock:
            if self._open[rank]:
                t0, name, phase = self._open[rank].pop()
                self._stamps[rank].append(
                    _Stamp("collective", name, phase, t0, self._last[rank], leaf=False)
                )

    def record_barrier(self, phase: str, rank: int) -> None:
        """A world barrier *rank* just left.  It entered at its previous
        stamp; :meth:`timeline` releases it at the last entry."""
        now = self._now()
        with self._lock:
            k = self._barriers[rank]
            self._barriers[rank] = k + 1
            self._stamp_locked(
                rank, now, "barrier", "barrier", phase, link=("barrier", k)
            )

    # ---- reading ---------------------------------------------------------

    def timeline(self) -> VirtualTimeline:
        """The recorded spans, numbered rank by rank in recording order,
        with causes resolved and barriers split into wait and release."""
        with self._lock:
            stamps = {r: list(s) for r, s in sorted(self._stamps.items()) if s}
            failed = tuple(sorted(self._failed_ranks))
        entries: dict[int, dict[int, float]] = defaultdict(dict)
        for rank, rs in stamps.items():
            for st in rs:
                if st.kind == "barrier":
                    entries[st.link[1]][rank] = st.t0
        rows: list[tuple[int, _Stamp]] = []
        send_uid: dict[tuple, int] = {}
        before_barrier: dict[tuple[int, int], int | None] = {}
        for rank, rs in stamps.items():
            prev: int | None = None
            for st in rs:
                if st.kind == "barrier":
                    k = st.link[1]
                    release = max(entries[k].values())
                    before_barrier[(rank, k)] = prev
                    if release > st.t0:
                        wait = st._replace(kind="wait", name="barrier-wait", t1=release)
                        rows.append((rank, wait))
                    st = st._replace(kind="collective", t0=release)
                elif st.kind in ("send", "isend"):
                    send_uid[st.link[1]] = len(rows)
                if st.leaf:
                    prev = len(rows)
                rows.append((rank, st))

        def cause(link: tuple | None) -> int | None:
            if link is None or link[0] == "send":
                return None
            if link[0] == "recv":
                return send_uid.get(link[1])
            arrived = entries[link[1]]
            last = max(arrived, key=lambda r: (arrived[r], r))
            return before_barrier.get((last, link[1]))

        spans = [
            Span(
                uid=uid, rank=rank, kind=st.kind, name=st.name, phase=st.phase,
                t0=st.t0, t1=st.t1, nbytes=st.nbytes, flops=st.flops,
                peer=st.peer, leaf=st.leaf, cause=cause(st.link),
            )
            for uid, (rank, st) in enumerate(rows)
        ]
        return VirtualTimeline(spans=spans, degraded=bool(failed), failed_ranks=failed)
