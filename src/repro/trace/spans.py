"""Per-rank span recording with virtual clocks for the simulated cluster.

The simulated runtime (:mod:`repro.simmpi`) executes ranks as threads,
so wall-clock timing is meaningless — what *is* exact is the logical
structure: which rank computed what, which messages crossed which
channel in which order, where a rank blocked.  This module records that
structure during a run and afterwards replays it onto **virtual
timelines**: compute spans are timed by the Section-7.4 cost model
(flop counts at the paper's measured efficiencies), communication spans
by the :mod:`repro.cluster` fabric model, and every gap where a rank
blocked in ``recv``/``barrier`` becomes an explicit *wait* span.

Two-stage design, chosen for determinism:

1. **Recording** (:class:`TraceRecorder`, driven by hooks inside the
   communicator) appends :class:`TraceEvent` entries to per-rank lists.
   Each rank appends only from its own thread, and message matching
   uses per-channel logical counters (the sender's k-th send on a
   ``(src, dst, tag)`` channel pairs with the receiver's k-th receive),
   so the recorded structure is a pure function of the program and the
   fault seed — independent of thread interleaving.
2. **Replay** (:meth:`TraceRecorder.timeline`) walks the per-rank event
   lists in dependency order and assigns virtual timestamps: a send
   occupies its sender for the wire serialisation time and becomes
   available to the receiver one latency later; a receive that runs
   ahead of its matched send emits a wait span; a barrier synchronises
   every rank to the latest arrival.  Replay is deterministic and can
   be re-run under different :class:`TraceCostModel` parameters without
   re-executing the FFT.

Tracing is zero-cost when off (one ``is None`` check per communicator
operation) and bit-transparent when on: hooks only *read* payload sizes
— they never touch payload bytes, channel contents or
:class:`~repro.simmpi.stats.TrafficStats`.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from ..cluster.machine import XEON_E5_2670_NODE, NodeSpec
from ..cluster.topology import FatTree, Topology

__all__ = [
    "SPAN_KINDS",
    "Span",
    "TraceCostModel",
    "TraceEvent",
    "TraceRecorder",
    "VirtualTimeline",
]

#: Span kinds a virtual timeline can contain.
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
    """Virtual-clock cost parameters (node + fabric, Section 7.4 style).

    Compute spans run at the paper's measured efficiencies (FFT stages
    ~10% of node peak, the SOI convolution ~40%); communication spans
    serialise onto the fabric's injection channel at the all-to-all
    efficiency of the topology model.  Replays with different cost
    models reuse the same recorded events.
    """

    node: NodeSpec = XEON_E5_2670_NODE
    fabric: Topology = field(default_factory=lambda: FatTree())
    fft_efficiency: float = 0.10
    conv_efficiency: float = 0.40
    latency_s: float = 2e-6  # one-way wire latency per message
    delivery_s: float = 1e-7  # receiver-side handoff per message
    barrier_s: float = 5e-6  # synchronisation cost once all ranks arrive
    post_overhead_s: float = 5e-7  # CPU cost of posting one nonblocking send
    #: Node shape of the traced world (R consecutive ranks per node).
    #: Same-node messages are shared-memory moves: no NIC serialisation,
    #: no wire latency — only the delivery handoff.  1 = the historical
    #: flat replay where every cross-rank message pays wire time.
    ranks_per_node: int = 1
    #: Shared-memory handoff per same-node message (zero-copy view pass).
    intra_node_s: float = 2e-7

    def compute_time(self, flops: float, kind: str = "fft") -> float:
        """Seconds to execute *flops* at the node's effective rate."""
        eff = self.conv_efficiency if kind == "conv" else self.fft_efficiency
        return max(float(flops), 0.0) / (self.node.dp_gflops * 1e9 * eff)

    def same_node(self, a: int, b: int) -> bool:
        """Whether ranks *a* and *b* share a node under this model."""
        r = max(int(self.ranks_per_node), 1)
        return a // r == b // r

    def wire_time(self, nbytes: int) -> float:
        """Seconds one message of *nbytes* occupies the injection channel."""
        bw = self.fabric.injection_bandwidth() * self.fabric.alltoall_efficiency
        return max(int(nbytes), 0) / bw

    def retransmit_time(self, nbytes: int) -> float:
        """Modelled recovery cost of one retransmission (NACK round trip
        plus the redelivered payload)."""
        return 2.0 * self.latency_s + self.wire_time(nbytes)


@dataclass(frozen=True)
class TraceEvent:
    """One logical event recorded during execution (pre-virtual-time).

    ``index`` is the logical per-channel ordinal used to match a receive
    with its send; ``ckind`` selects the compute efficiency.
    """

    kind: str  # compute | send | recv | retransmit | cbegin | cend | barrier
    rank: int
    phase: str
    name: str = ""
    peer: int = -1
    tag: Any = None
    index: int = -1
    nbytes: int = 0
    flops: float = 0.0
    ckind: str = "fft"


@dataclass(frozen=True)
class Span:
    """One interval on a rank's virtual timeline.

    ``leaf`` spans tile each rank's timeline exactly (every virtual
    second of a rank is inside exactly one leaf span); non-leaf spans
    are enclosing collective markers (e.g. the all-to-all epoch that
    brackets its constituent sends and receives).  ``cause`` names the
    cross-rank dependency (the uid of the send that a wait span blocked
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
    """The replayed run: every span of every rank, plus the cost model.

    ``degraded``/``failed_ranks`` describe ABFT survival runs: ranks
    that died mid-run and whose work the survivors reconstructed (their
    reconstruction appears as ``recovery`` spans).
    """

    spans: list[Span]
    cost: TraceCostModel
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
        """This rank's spans in paint order (parents before children)."""
        out = [
            s
            for s in self.spans
            if s.rank == rank and (s.leaf or not leaf_only)
        ]
        out.sort(key=lambda s: (s.t0, -(s.t1 - s.t0)))
        return out

    def by_uid(self) -> dict[int, Span]:
        return {s.uid: s for s in self.spans}


class TraceRecorder:
    """Thread-safe per-rank event recorder (see module docstring).

    One recorder instance is shared by every rank of a run — attach it
    via ``run_spmd(..., trace=recorder)`` or the ``trace=`` option of
    the distributed FFTs.  After the run, :meth:`timeline` replays the
    events into a :class:`VirtualTimeline`.
    """

    def __init__(self, cost: TraceCostModel | None = None) -> None:
        self.cost = cost if cost is not None else TraceCostModel()
        self._lock = threading.Lock()
        self._events: dict[int, list[TraceEvent]] = defaultdict(list)
        self._send_counts: dict[tuple, int] = defaultdict(int)
        self._recv_counts: dict[tuple, int] = defaultdict(int)
        self._failed_ranks: set[int] = set()
        self._world_ranks_per_node: int | None = None

    # ---- lifecycle -------------------------------------------------------

    def attach(self, world: Any) -> None:
        """Install this recorder on a :class:`~repro.simmpi.transport.World`.

        Idempotent so every rank of an SPMD function may call it; a
        world can carry at most one recorder.
        """
        with self._lock:
            current = getattr(world, "tracer", None)
            if current is None:
                world.tracer = self
            elif current is not self:
                raise ValueError(
                    "world already has a different TraceRecorder attached"
                )
            nodes = getattr(world, "nodes", None)
            if nodes is not None:
                # Remember the world's node shape so the default replay
                # prices same-node messages as shared-memory moves.
                self._world_ranks_per_node = nodes.ranks_per_node

    def new_run(self) -> None:
        """Drop all recorded events (called on SPMD restart attempts so
        the timeline describes the successful attempt)."""
        with self._lock:
            self._events.clear()
            self._send_counts.clear()
            self._recv_counts.clear()
            self._failed_ranks.clear()

    def clear(self) -> None:
        """Alias of :meth:`new_run` for standalone reuse."""
        self.new_run()

    @property
    def nevents(self) -> int:
        with self._lock:
            return sum(len(evs) for evs in self._events.values())

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

    def _append(self, ev: TraceEvent) -> None:
        with self._lock:
            self._events[ev.rank].append(ev)

    def record_send(
        self, phase: str, src: int, dst: int, tag: Any, nbytes: int
    ) -> None:
        with self._lock:
            key = (src, dst, tag)
            idx = self._send_counts[key]
            self._send_counts[key] = idx + 1
            self._events[src].append(
                TraceEvent(
                    kind="send", rank=src, phase=phase, name=f"send->{dst}",
                    peer=dst, tag=tag, index=idx, nbytes=int(nbytes),
                )
            )

    def record_isend(
        self, phase: str, src: int, dst: int, tag: Any, nbytes: int
    ) -> None:
        """A nonblocking send post.  Shares the per-channel ordinal family
        with :meth:`record_send` (the receiver's k-th receive matches the
        channel's k-th logical send, blocking or not), but replays as a
        short post span: the wire time runs on the rank's virtual NIC,
        concurrently with subsequent compute."""
        with self._lock:
            key = (src, dst, tag)
            idx = self._send_counts[key]
            self._send_counts[key] = idx + 1
            self._events[src].append(
                TraceEvent(
                    kind="isend", rank=src, phase=phase, name=f"isend->{dst}",
                    peer=dst, tag=tag, index=idx, nbytes=int(nbytes),
                )
            )

    def record_recv(
        self, phase: str, src: int, dst: int, tag: Any, nbytes: int
    ) -> None:
        with self._lock:
            key = (src, dst, tag)
            idx = self._recv_counts[key]
            self._recv_counts[key] = idx + 1
            self._events[dst].append(
                TraceEvent(
                    kind="recv", rank=dst, phase=phase, name=f"recv<-{src}",
                    peer=src, tag=tag, index=idx, nbytes=int(nbytes),
                )
            )

    def record_compute(
        self, phase: str, rank: int, name: str, flops: float, kind: str = "fft"
    ) -> None:
        self._append(
            TraceEvent(
                kind="compute", rank=rank, phase=phase, name=name,
                flops=float(flops), ckind=kind,
            )
        )

    def record_retransmit(
        self, phase: str, src: int, dst: int, nbytes: int
    ) -> None:
        """Recovery work observed on the *receiver's* timeline (the rank
        paying for the redelivery round trip)."""
        self._append(
            TraceEvent(
                kind="retransmit", rank=dst, phase=phase,
                name=f"retransmit<-{src}", peer=src, nbytes=int(nbytes),
            )
        )

    def record_failure(self, phase: str, rank: int, dead: int) -> None:
        """Rank *rank* observed peer *dead* as failed during *phase*.

        Marks the timeline degraded and drops a zero-length marker on
        the observer's track so the detection point is visible.
        """
        with self._lock:
            self._failed_ranks.add(int(dead))
            self._events[rank].append(
                TraceEvent(
                    kind="failure", rank=rank, phase=phase,
                    name=f"detected rank {dead} dead", peer=int(dead),
                )
            )

    def record_recovery(
        self,
        phase: str,
        rank: int,
        name: str,
        nbytes: int = 0,
        flops: float = 0.0,
    ) -> None:
        """ABFT reconstruction work (recompute and/or block transfer)
        executed by *rank* on behalf of a dead peer."""
        self._append(
            TraceEvent(
                kind="recovery", rank=rank, phase=phase, name=name,
                nbytes=int(nbytes), flops=float(flops),
            )
        )

    def record_collective_begin(self, phase: str, rank: int, name: str) -> None:
        self._append(TraceEvent(kind="cbegin", rank=rank, phase=phase, name=name))

    def record_collective_end(self, phase: str, rank: int, name: str) -> None:
        self._append(TraceEvent(kind="cend", rank=rank, phase=phase, name=name))

    def record_barrier(self, phase: str, rank: int) -> None:
        self._append(TraceEvent(kind="barrier", rank=rank, phase=phase, name="barrier"))

    # ---- replay ----------------------------------------------------------

    def timeline(self, cost: TraceCostModel | None = None) -> VirtualTimeline:
        """Replay the recorded events into virtual time.

        Deterministic: the result depends only on the recorded event
        lists and the cost model.  Safe to call repeatedly (e.g. with
        different cost models for what-if analysis).

        When the traced world had a node shape (``ranks_per_node > 1``)
        and the cost model was left at the flat default, the replay
        inherits the world's shape — same-node messages replay as
        shared-memory handoffs, so the critical path attributes wire
        time to inter-node traffic only.  An explicit
        ``ranks_per_node`` on the cost model always wins (what-if
        replays on a different shape).
        """
        cost = cost if cost is not None else self.cost
        with self._lock:
            events = {r: list(evs) for r, evs in self._events.items() if evs}
            failed = tuple(sorted(self._failed_ranks))
            learned = self._world_ranks_per_node
        if learned is not None and learned > 1 and cost.ranks_per_node == 1:
            cost = dataclasses.replace(cost, ranks_per_node=learned)
        tl = _replay(events, cost)
        tl.degraded = bool(failed)
        tl.failed_ranks = failed
        return tl


# ---- the virtual-clock replay engine -------------------------------------


def _replay(events: dict[int, list[TraceEvent]], cost: TraceCostModel) -> VirtualTimeline:
    ranks = sorted(events)
    spans: list[Span] = []
    next_uid = 0

    def emit(
        rank: int, kind: str, name: str, phase: str, t0: float, t1: float,
        nbytes: int = 0, flops: float = 0.0, peer: int = -1,
        leaf: bool = True, cause: int | None = None,
    ) -> Span:
        nonlocal next_uid
        s = Span(
            uid=next_uid, rank=rank, kind=kind, name=name, phase=phase,
            t0=t0, t1=t1, nbytes=nbytes, flops=flops, peer=peer,
            leaf=leaf, cause=cause,
        )
        next_uid += 1
        spans.append(s)
        return s

    # Total logical sends per channel: a receive whose ordinal exceeds
    # this can never match (fault runs on the raw substrate) and must
    # not stall the replay.
    total_sends: dict[tuple, int] = defaultdict(int)
    for evs in events.values():
        for ev in evs:
            if ev.kind in ("send", "isend"):
                total_sends[(ev.rank, ev.peer, ev.tag)] += 1

    idx = {r: 0 for r in ranks}
    clock = {r: 0.0 for r in ranks}
    last_span: dict[int, int | None] = {r: None for r in ranks}
    avail: dict[tuple, tuple[float, int]] = {}  # channel+ordinal -> (time, send uid)
    open_coll: dict[int, list[tuple[float, str, str]]] = {r: [] for r in ranks}
    # Per-rank virtual NIC: nonblocking sends serialise onto it in post
    # order, overlapping with the poster's subsequent compute.
    nic_free: dict[int, float] = defaultdict(float)

    def advance(rank: int) -> bool:
        """Process rank events until a cross-rank dependency blocks.
        Returns True if at least one event was consumed."""
        progressed = False
        evs = events[rank]
        while idx[rank] < len(evs):
            ev = evs[idx[rank]]
            t = clock[rank]
            if ev.kind == "compute":
                dur = cost.compute_time(ev.flops, ev.ckind)
                s = emit(rank, "compute", ev.name, ev.phase, t, t + dur, flops=ev.flops)
            elif ev.kind == "send":
                # Same-node messages are shared-memory moves: no NIC
                # serialisation, no wire latency — inter-node traffic
                # alone carries wire time onto the critical path.
                local = cost.same_node(ev.rank, ev.peer)
                dur = cost.intra_node_s if local else cost.wire_time(ev.nbytes)
                s = emit(
                    rank, "send", ev.name, ev.phase, t, t + dur,
                    nbytes=ev.nbytes, peer=ev.peer,
                )
                avail[(ev.rank, ev.peer, ev.tag, ev.index)] = (
                    t + dur + (0.0 if local else cost.latency_s),
                    s.uid,
                )
                if not local:
                    nic_free[rank] = t + dur  # a blocking send occupies the NIC too
            elif ev.kind == "isend":
                # The poster pays only the post overhead; the message then
                # serialises through the rank's NIC and arrives one wire
                # time plus latency later — concurrent with later spans.
                # Same-node posts skip the NIC entirely.
                local = cost.same_node(ev.rank, ev.peer)
                s = emit(
                    rank, "isend", ev.name, ev.phase, t, t + cost.post_overhead_s,
                    nbytes=ev.nbytes, peer=ev.peer,
                )
                if local:
                    avail[(ev.rank, ev.peer, ev.tag, ev.index)] = (
                        s.t1 + cost.intra_node_s,
                        s.uid,
                    )
                else:
                    depart = max(s.t1, nic_free[rank])
                    done = depart + cost.wire_time(ev.nbytes)
                    nic_free[rank] = done
                    avail[(ev.rank, ev.peer, ev.tag, ev.index)] = (
                        done + cost.latency_s,
                        s.uid,
                    )
            elif ev.kind == "retransmit":
                dur = cost.retransmit_time(ev.nbytes)
                s = emit(
                    rank, "retransmit", ev.name, ev.phase, t, t + dur,
                    nbytes=ev.nbytes, peer=ev.peer,
                )
            elif ev.kind == "recovery":
                # Reconstruction work: recompute at FFT efficiency plus
                # the recovered blocks crossing the wire.
                dur = cost.compute_time(ev.flops, "fft") + cost.wire_time(ev.nbytes)
                s = emit(
                    rank, "recovery", ev.name, ev.phase, t, t + dur,
                    nbytes=ev.nbytes, flops=ev.flops,
                )
            elif ev.kind == "failure":
                # Zero-length detection marker on the observer's track.
                emit(
                    rank, "recovery", ev.name, ev.phase, t, t,
                    peer=ev.peer, leaf=False,
                )
                idx[rank] += 1
                progressed = True
                continue
            elif ev.kind == "recv":
                key = (ev.peer, ev.rank, ev.tag, ev.index)
                if key in avail:
                    at, send_uid = avail[key]
                elif ev.index >= total_sends.get((ev.peer, ev.rank, ev.tag), 0):
                    at, send_uid = t, None  # unmatched: never stall
                else:
                    break  # matched send not replayed yet: defer
                if at > t:
                    w = emit(
                        rank, "wait", f"wait<-{ev.peer}", ev.phase, t, at,
                        peer=ev.peer, cause=send_uid,
                    )
                    last_span[rank] = w.uid
                    clock[rank] = at
                    t = at
                s = emit(
                    rank, "recv", ev.name, ev.phase, t, t + cost.delivery_s,
                    nbytes=ev.nbytes, peer=ev.peer, cause=send_uid,
                )
            elif ev.kind == "cbegin":
                open_coll[rank].append((t, ev.name, ev.phase))
                idx[rank] += 1
                progressed = True
                continue
            elif ev.kind == "cend":
                if open_coll[rank]:
                    t0, name, phase = open_coll[rank].pop()
                    emit(rank, "collective", name, phase, t0, t, leaf=False)
                idx[rank] += 1
                progressed = True
                continue
            elif ev.kind == "barrier":
                break  # resolved globally once every rank arrives
            else:  # pragma: no cover - future event kinds
                idx[rank] += 1
                progressed = True
                continue
            clock[rank] = s.t1
            last_span[rank] = s.uid
            idx[rank] += 1
            progressed = True
        return progressed

    while True:
        progressed = False
        for r in ranks:
            progressed |= advance(r)
        pending = [r for r in ranks if idx[r] < len(events[r])]
        if not pending:
            break
        at_barrier = [r for r in pending if events[r][idx[r]].kind == "barrier"]
        if at_barrier == pending:
            # Every still-active rank arrived: release the barrier.
            arrivals = {r: clock[r] for r in pending}
            release_from = max(arrivals.values())
            last_arriver = max(pending, key=lambda r: (arrivals[r], r))
            cause = last_span[last_arriver]
            release = release_from + cost.barrier_s
            for r in pending:
                ev = events[r][idx[r]]
                if arrivals[r] < release_from:
                    w = emit(
                        r, "wait", "barrier-wait", ev.phase,
                        arrivals[r], release_from, cause=cause,
                    )
                    last_span[r] = w.uid
                b = emit(
                    r, "collective", "barrier", ev.phase,
                    release_from, release, cause=cause,
                )
                clock[r] = release
                last_span[r] = b.uid
                idx[r] += 1
            continue
        if progressed:
            continue
        # Stalled: a dependency cycle artefact of approximate matching
        # under raw-substrate faults.  Force-resolve deterministically:
        # unblock the earliest-clock receive (it waits no further), or
        # release a partial barrier if only barriers remain.
        stuck_recv = [r for r in pending if events[r][idx[r]].kind == "recv"]
        if stuck_recv:
            r = min(stuck_recv, key=lambda r: (clock[r], r))
            ev = events[r][idx[r]]
            avail[(ev.peer, ev.rank, ev.tag, ev.index)] = (clock[r], None)  # type: ignore[assignment]
            continue
        if at_barrier:
            for r in at_barrier:
                ev = events[r][idx[r]]
                emit(
                    r, "collective", "barrier", ev.phase,
                    clock[r], clock[r] + cost.barrier_s,
                )
                clock[r] += cost.barrier_s
                idx[r] += 1
            continue
        break  # pragma: no cover - defensive: nothing resolvable remains

    return VirtualTimeline(spans=spans, cost=cost)
