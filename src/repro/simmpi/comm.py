"""The simulated communicator: mpi4py-flavoured message passing on threads.

Each rank runs in its own thread; messages travel through per-channel
FIFO queues guarded by one world-wide condition variable (receivers
block on the condition — no polling — and an abort on any rank wakes
every blocked receiver immediately).  The API follows mpi4py's
lower-case object interface restricted to what the FFT algorithms need:
point-to-point ``send``/``recv``/``sendrecv``, and the collectives
``barrier``, ``bcast``, ``gather``, ``allgather``, ``scatter``,
``alltoall``, ``reduce``, ``allreduce``.

Every transfer is recorded in the shared :class:`TrafficStats`; NumPy
payloads are counted by ``nbytes`` (they are handed over zero-copy —
the *simulation* moves references, the *accounting* moves bytes).
Receives carry a timeout so mismatched communication surfaces as a
:class:`DeadlockError` instead of a hung test run.

Robustness stack (all opt-in, see ``faults.py`` for the fault model):

- a :class:`~repro.simmpi.faults.FaultPlan` on the :class:`World`
  injects deterministic wire faults (drop/duplicate/delay/truncate/
  bitflip) and phase-boundary rank kills;
- a :class:`TransportPolicy` layers reliable delivery on top: every
  payload travels in an envelope carrying a per-channel sequence number
  and a CRC32 checksum; the receiver detects loss, corruption,
  truncation, duplication and reordering, and requests bounded
  retransmission with exponential backoff.  Recovery cost (retransmit
  counts and bytes) is recorded in :class:`TrafficStats`.

The reliable protocol is *receiver-driven* (NACK-style, like reliable
multicast): senders never block on acknowledgements, so collectives
built from point-to-point sends cannot deadlock against the recovery
machinery.  Retransmission triggers are simulation-exact — a receiver
asks for redelivery only when the expected sequence number was
physically transmitted and is neither queued nor delayed in flight —
which keeps retry counts bit-reproducible for a given fault seed.  One
receive step (:meth:`Communicator._reliable_step`) serves every receive
path — blocking ``recv``, request waits and :func:`waitany`'s poll — and
the retry budget lives on the channel, so a waiting rank recovers a
lost or corrupt message whichever call it is blocked in.

Nonblocking layer (MPI's request model, used by the pipelined SOI path):

- :meth:`Communicator.isend` / :meth:`Communicator.irecv` return
  :class:`Request` handles with ``wait``/``test`` semantics;
  :func:`waitall` / :func:`waitany` complete sets of them.  An ``isend``
  performs ALL wire effects at post time (fault injection, transport
  framing, traffic accounting, trace recording) — only *completion* is
  deferred, so per-channel FIFO order, the fault indices and the byte
  accounting are identical to the blocking calls.  The chunked
  :meth:`Communicator.ialltoall` builds the global exchange from these
  primitives.
- An optional **link model** (``link_latency_s`` / ``link_bandwidth``
  on the :class:`World`) serialises off-rank messages through a
  per-sender NIC and delays delivery by a wire latency, using one
  background pump thread with a deadline heap.  Per-channel FIFO order
  is preserved (per-source departure times are monotone), so fault
  injection, the reliable transport and schedule fuzzing compose
  unchanged.  Without link parameters the pump does not exist and
  delivery is immediate, exactly as before.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
import zlib
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .alltoall import ALGORITHMS, resolve_algorithm
from .errors import (
    CollectiveTimeoutError,
    CorruptMessageError,
    DeadlockError,
    InjectedFault,
    RankFailedError,
    RetryExhaustedError,
    SimMpiError,
)
from .faults import FaultPlan, corrupt_payload
from .nodes import FABRIC_HEADER_BYTES, NodeMap, NodeSharedPool
from .stats import TrafficStats

__all__ = [
    "World",
    "Communicator",
    "ShrunkCommunicator",
    "SubCommunicator",
    "TransportPolicy",
    "Request",
    "SendRequest",
    "RecvRequest",
    "waitall",
    "waitany",
]

_DEFAULT_TIMEOUT = 120.0

_TIMEOUT = object()  # sentinel: channel wait elapsed

# Per-World ordinals for execution-context identity (repro.exectx).
_WORLD_TOKENS = itertools.count()


def _payload_bytes(obj: Any) -> int:
    """Accounted size of a message payload."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, np.generic):  # NumPy scalars (np.complex128, ...)
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(o) for o in obj)
    if isinstance(obj, (int, float, complex, bool)) or obj is None:
        return 16
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, dict):
        return sum(_payload_bytes(k) + _payload_bytes(v) for k, v in obj.items())
    return 64  # conservative default for small control objects


def _as_bytes(obj: Any) -> bytes:
    """Canonical byte view of a payload for checksumming."""
    if isinstance(obj, np.ndarray):
        return np.ascontiguousarray(obj).tobytes()
    if isinstance(obj, np.generic):
        return obj.tobytes()
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return bytes(obj)
    if isinstance(obj, (list, tuple)):
        return b"".join(_as_bytes(o) for o in obj)
    return repr(obj).encode()


def payload_checksum(obj: Any) -> int:
    """CRC32 over the payload's byte content (ndarrays via ``tobytes``)."""
    return zlib.crc32(_as_bytes(obj)) & 0xFFFFFFFF


@dataclass(frozen=True)
class TransportPolicy:
    """Knobs of the opt-in reliable transport.

    checksums:
        Verify a CRC32 over the payload bytes on receipt; detects
        bit-flips (truncation is caught by the declared-size check even
        with checksums off).
    max_retries:
        Redelivery attempts per message before
        :class:`RetryExhaustedError`.  ``0`` = detect-only mode:
        corruption raises :class:`CorruptMessageError` instead of being
        repaired.
    retry_timeout:
        Receiver patience before the first retransmit request, seconds.
    backoff:
        Multiplicative patience growth per attempt (exponential backoff).
    control_nbytes:
        Modelled size of one ack/nack control message, counted in
        ``TrafficStats`` control bytes.
    """

    checksums: bool = True
    max_retries: int = 8
    retry_timeout: float = 0.05
    backoff: float = 2.0
    control_nbytes: int = 16


@dataclass(eq=False)  # identity equality: payloads may be ndarrays
class _Envelope:
    """Wire framing of the reliable transport (one per transmission)."""

    seq: int
    phase: str
    payload: Any
    crc: int | None  # CRC32 of payload bytes; None when checksums are off
    nbytes: int  # declared payload size (truncation detector)


@dataclass(eq=False)
class _RecvState:
    """Receiver side of one reliable channel (touched only by its receiver).

    The retry budget sits here rather than in a call's locals so that
    every receive path spends and resets the same one; it resets when
    the expected envelope is accepted.
    """

    patience: float  # current patience before a retransmit request, seconds
    expected: int = 0  # next in-sequence envelope
    stash: dict = field(default_factory=dict)  # seq -> early envelope
    attempts: int = 0  # retransmits requested for ``expected``
    since: float | None = None  # clock() when the patience window opened


class _LinkPump:
    """Background delivery thread modelling a per-sender NIC and a wire.

    Every off-rank message departs when the sender's NIC is free
    (``depart = max(now, nic_free[src])``; the NIC is then busy for
    ``nbytes / bandwidth`` seconds) and arrives ``latency_s`` after the
    last byte leaves.  One thread drains a deadline heap; payload
    references ride in per-channel FIFO deques, so arrival order per
    channel equals post order (per-source departures are monotone and
    the heap breaks due-time ties by submission sequence).
    """

    def __init__(self, world: "World", latency_s: float, bandwidth: float | None):
        self.world = world
        self.latency_s = latency_s
        self.bandwidth = bandwidth
        self._cv = threading.Condition()
        self._heap: list[tuple[float, int, tuple]] = []  # (due, seq, key)
        self._queues: dict[tuple, deque] = {}
        self._seq = 0
        self._nic_free: dict[int, float] = {}
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, name="simmpi-link-pump", daemon=True
        )
        self._thread.start()

    def submit(self, key: tuple, item: Any, nbytes: int) -> None:
        src = key[0]
        now = time.monotonic()
        with self._cv:
            depart = max(now, self._nic_free.get(src, 0.0))
            wire = (nbytes / self.bandwidth) if self.bandwidth else 0.0
            self._nic_free[src] = depart + wire
            self._queues.setdefault(key, deque()).append(item)
            self._seq += 1
            heapq.heappush(self._heap, (depart + wire + self.latency_s, self._seq, key))
            self._cv.notify()

    def pending_items(self, key: tuple) -> tuple:
        """Snapshot of undelivered payloads on *key* (for ``_in_flight``)."""
        with self._cv:
            return tuple(self._queues.get(key, ()))

    def stop(self) -> None:
        with self._cv:
            self._stopped = True
            self._cv.notify()
        self._thread.join(timeout=1.0)

    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._heap and not self._stopped:
                    self._cv.wait()
                if self._stopped:
                    return  # world is over; undelivered messages are moot
                due, _, key = self._heap[0]
                delay = due - time.monotonic()
                if delay > 0:
                    self._cv.wait(delay)
                    continue
                heapq.heappop(self._heap)
                item = self._queues[key].popleft()
            self.world._arrive(key, item)


class World:
    """Shared state of one SPMD execution: channels, barrier, stats.

    Created by :func:`repro.simmpi.runtime.run_spmd`; user code only
    sees per-rank :class:`Communicator` views.
    """

    def __init__(
        self,
        nranks: int,
        timeout: float = _DEFAULT_TIMEOUT,
        faults: FaultPlan | None = None,
        transport: TransportPolicy | None = None,
        link_latency_s: float = 0.0,
        link_bandwidth: float | None = None,
        resilient: bool = False,
        ranks_per_node: int | None = None,
        alltoall_algorithm: str = "pairwise",
    ) -> None:
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        if alltoall_algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown alltoall algorithm {alltoall_algorithm!r}; "
                f"expected one of {ALGORITHMS}"
            )
        self.nranks = nranks
        self.timeout = timeout
        # Process-unique ordinal: (ctx_token, rank) identifies one logical
        # rank of one world, regardless of which OS thread hosts it (the
        # DES backend recycles vessel threads across ranks; the serve
        # layer runs concurrent worlds).  See repro.exectx.
        self.ctx_token = next(_WORLD_TOKENS)
        # Node topology: ranks_per_node=None keeps the historical flat
        # world (every rank its own node).  Same-node messages bypass the
        # link pump and ride the shared pool; TrafficStats splits bytes
        # into intra-node vs inter-node accordingly.
        self.nodes = NodeMap(nranks, ranks_per_node)
        self.node_pool = NodeSharedPool(self.nodes)
        self.alltoall_algorithm = alltoall_algorithm
        self.stats = TrafficStats()
        self.stats.configure_topology(self.nodes, header_bytes=FABRIC_HEADER_BYTES)
        self.faults = faults
        self.transport = transport
        # Resilient mode (mini ULFM): a dying rank is *marked* failed and
        # survivors keep running — blocked operations naming the dead peer
        # raise RankFailedError instead of the whole world aborting.
        self.resilient = resilient
        self._failed: dict[int, BaseException] = {}  # guarded by _cv
        self._cv = threading.Condition()
        self._channels: dict[tuple, deque] = {}
        self._pending_delays: dict[tuple, list] = {}
        self._barrier = threading.Barrier(nranks)
        self.abort_event = threading.Event()
        # Optional fault hook: (src, dst, tag, payload) -> payload.
        # Legacy shim — prefer a FaultPlan / ChaosSchedule (faults=).
        self.fault_hook: Callable[[int, int, int, Any], Any] | None = None
        # Optional span recorder (repro.trace.TraceRecorder).  Hooks fire
        # only when set; they read payload *sizes* and never touch the
        # payloads or the traffic statistics, so traced runs stay
        # bit-identical to untraced ones.
        self.tracer: Any | None = None
        # Optional schedule controller (repro.check.ScheduleController).
        # When set, it intercepts message delivery (holding and releasing
        # queued payloads in a seeded permuted order) and observes
        # send/recv/barrier events for happens-before tracking.  Same
        # contract as the tracer: zero-cost ``is None`` checks when off,
        # and it must never alter payloads or traffic accounting.
        self.scheduler: Any | None = None
        # Reliable-transport state (sequence numbers, retransmit buffer).
        self._state_lock = threading.Lock()
        self._send_seq: dict[tuple, int] = {}
        self._unacked: dict[tuple, list] = {}  # (src,dst,tag,seq) -> [env, attempts]
        self._recv_state: dict[tuple, _RecvState] = {}  # (src,dst,tag) -> state
        # Nonblocking-layer state (all guarded by _cv unless noted):
        # activity ticks wake request waiters whenever anything that could
        # complete a request happens (delivery, consumption, an ack).
        self._activity = 0
        self._consumed: dict[tuple, int] = {}  # channel key -> items popped
        self._raw_posted: dict[tuple, int] = {}  # guarded by _state_lock
        self._pending_recvs: dict[tuple, deque] = {}  # key -> RecvRequests, FIFO
        # Optional modelled interconnect: one pump thread when active.
        self._pump: _LinkPump | None = None
        if link_latency_s > 0.0 or link_bandwidth is not None:
            self._pump = _LinkPump(self, link_latency_s, link_bandwidth)

    # ---- engine seams (overridden by the discrete-event backend) ---------

    #: Whether this world runs on virtual time (True on DesWorld).  The
    #: discrete-event backend advances per-rank clocks from the trace
    #: cost model; the thread backend reads the wall clock.
    virtual_time = False

    def clock(self) -> float:
        """The calling rank's notion of "now", in seconds.

        Thread backend: the process monotonic clock (all ranks share
        it).  DES backend: the calling rank's virtual clock.  Every
        deadline in the blocking primitives is expressed on this clock,
        which is what lets one timeout implementation serve both
        engines.
        """
        return time.monotonic()

    def advance_compute(self, rank: int, flops: float, kind: str) -> None:
        """Advance *rank*'s clock by a modelled compute span (DES only)."""

    def _await_activity(self, rank: int, ticks: int, remaining: float) -> None:
        """Block *rank* until world activity moves past *ticks*.

        One idle step of a request wait loop: returns (possibly
        spuriously) whenever anything that could complete a request may
        have happened, or after at most *remaining* seconds on
        :meth:`clock`.  The thread backend sleeps on the world condition
        variable (capped, because ticks can race the snapshot); the DES
        backend parks the rank's fiber until an event involving it.
        """
        with self._cv:
            if self._activity == ticks:
                self._cv.wait(min(remaining, 0.1))

    # ---- channel primitives (condition-based, no polling) ----------------

    def channel(self, src: int, dst: int, tag: Any) -> deque:
        key = (src, dst, tag)
        with self._cv:
            ch = self._channels.get(key)
            if ch is None:
                ch = self._channels[key] = deque()
            return ch

    def _deliver(self, key: tuple, item: Any) -> None:
        """Append *item* to its channel.  Caller holds ``_cv`` and notifies."""
        ch = self._channels.get(key)
        if ch is None:
            ch = self._channels[key] = deque()
        ch.append(item)

    def _arrive(self, key: tuple, item: Any) -> None:
        """Final delivery into the channel (scheduler-aware, takes ``_cv``)."""
        with self._cv:
            self._arrive_locked(key, item)

    def _arrive_locked(self, key: tuple, item: Any) -> None:
        """Deliver under ``_cv`` (callers that already hold it skip a trip)."""
        if self.scheduler is not None:
            # The controller may deliver now or hold the message for a
            # later, permuted release (on_wait below guarantees any
            # blocked receiver eventually drains its held messages).
            self.scheduler.on_put(self, key, item)
        else:
            self._deliver(key, item)
        # Unconditional: even a held message must wake receivers so
        # their wait loop reaches the scheduler's release hook.
        self._activity += 1
        self._cv.notify_all()

    def _put(self, key: tuple, item: Any) -> None:
        src, dst = key[0], key[1]
        if src != dst and self.nodes.same_node(src, dst):
            # Same-node, different-rank: the payload rides the node's
            # shared pool (a zero-copy view for ndarrays) and never
            # touches the modelled link — node-local exchanges are
            # memory moves, not fabric traffic.
            self._arrive(key, self._stage_same_node(src, dst, item))
            return
        if self._pump is not None and src != dst:
            self._pump.submit(key, item, self._wire_bytes(item))
            return
        self._arrive(key, item)

    def _stage_same_node(self, src: int, dst: int, item: Any) -> Any:
        """Route a same-node payload through the node shared pool.

        Transport envelopes are re-framed around the staged inner payload
        (seq/CRC/nbytes unchanged — a view has identical bytes), so the
        reliable protocol composes with the zero-copy path.
        """
        if isinstance(item, _Envelope):
            staged = self.node_pool.stage(src, dst, item.payload)
            if staged is item.payload:
                return item
            return _Envelope(
                seq=item.seq,
                phase=item.phase,
                payload=staged,
                crc=item.crc,
                nbytes=item.nbytes,
            )
        return self.node_pool.stage(src, dst, item)

    def _delayed_put(self, key: tuple, item: Any, delay_s: float) -> None:
        holder = [item]  # identity token (payloads may be ndarrays: no ==)
        with self._cv:
            self._pending_delays.setdefault(key, []).append(holder)

        def fire() -> None:
            # Hand off to the normal path first (pump or direct) so the
            # message is never invisible to _in_flight between the two steps.
            self._put(key, item)
            with self._cv:
                pending = self._pending_delays.get(key, [])
                for i, h in enumerate(pending):
                    if h is holder:
                        del pending[i]
                        break

        t = threading.Timer(delay_s, fire)
        t.daemon = True
        t.start()

    def _get(self, key: tuple, deadline: float, fail_dead: bool = True) -> Any:
        """Pop the next item, waiting until *deadline* (monotonic seconds).

        Returns the module-level ``_TIMEOUT`` sentinel when the deadline
        passes; raises if the world aborted while waiting, or — when
        *fail_dead* — if the source rank is marked dead and the channel
        is quiet (nothing more can ever arrive).  Nonblocking polls pass
        ``fail_dead=False`` so progress-engine sweeps over unrelated
        channels never raise another peer's death at the wrong call site.
        """
        with self._cv:
            while True:
                found, item = self._poll_channel_locked(key, fail_dead)
                if found:
                    return item
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return _TIMEOUT
                self._cv.wait(remaining)

    def _poll_channel_locked(self, key: tuple, fail_dead: bool) -> tuple[bool, Any]:
        """One non-waiting attempt to pop from *key*: ``(found, item)``.

        Caller holds ``_cv``.  Shared by both engines' ``_get``: runs
        the scheduler's held-message release hook, raises on abort, and
        raises :class:`RankFailedError` for a quiet dead source.
        """
        while True:
            if self.abort_event.is_set():
                raise SimMpiError("aborted: another rank failed")
            ch = self._channels.get(key)
            if ch is None:
                ch = self._channels[key] = deque()
            if ch:
                item = ch.popleft()
                self._note_consumed_locked(key)
                return True, item
            if self.scheduler is not None and self.scheduler.on_wait(self, key):
                continue  # the controller released a held message for us
            if (
                fail_dead
                and self._failed
                and key[0] in self._failed
                and key[0] != key[1]
                and self._quiet_locked(key)
            ):
                raise RankFailedError(
                    (key[0],), where=f"recv into rank {key[1]} (tag={key[2]})"
                )
            return False, None

    def _note_consumed_locked(self, key: tuple) -> None:
        """Record one popped item on *key*.  Caller holds ``_cv``.

        Consumption ordinals complete raw-substrate send requests, and
        the activity tick wakes any request waiter to re-poll.
        """
        self._consumed[key] = self._consumed.get(key, 0) + 1
        self._activity += 1
        self._cv.notify_all()

    def consumed_count(self, key: tuple) -> int:
        with self._cv:
            return self._consumed.get(key, 0)

    def next_raw_ordinal(self, key: tuple) -> int:
        """Logical-send ordinal on a raw (transport-less) channel."""
        with self._state_lock:
            n = self._raw_posted.get(key, 0)
            self._raw_posted[key] = n + 1
            return n

    def _in_flight(self, key: tuple, seq: int) -> bool:
        """Whether envelope *seq* is queued or delay-scheduled on *key*.

        Simulation omniscience that keeps retransmit counts exact: a
        receiver only requests redelivery of messages that were truly
        lost, never of ones merely slow to arrive.
        """
        with self._cv:
            for item in self._channels.get(key, ()):
                if isinstance(item, _Envelope) and item.seq == seq:
                    return True
            for holder in self._pending_delays.get(key, ()):
                if isinstance(holder[0], _Envelope) and holder[0].seq == seq:
                    return True
            if self.scheduler is not None:
                # Messages held by a schedule controller are physically in
                # flight — the receiver must not count them as lost, or
                # retransmit statistics would diverge between interleavings.
                for item in self.scheduler.held_items(key):
                    if isinstance(item, _Envelope) and item.seq == seq:
                        return True
        if self._pump is not None:
            # Messages riding the modelled link are in flight too.
            for item in self._pump.pending_items(key):
                if isinstance(item, _Envelope) and item.seq == seq:
                    return True
        return False

    def abort(self) -> None:
        """Mark the run failed and wake every blocked receiver/barrier."""
        self.abort_event.set()
        self._barrier.abort()
        with self._cv:
            self._cv.notify_all()

    def check_abort(self) -> None:
        if self.abort_event.is_set():
            raise SimMpiError("aborted: another rank failed")

    # ---- failure detection (mini ULFM) -----------------------------------

    def mark_failed(self, rank: int, exc: BaseException) -> None:
        """Record *rank* as dead and wake every blocked waiter.

        In resilient mode the survivors keep running: blocked operations
        whose completion requires the dead rank observe the death (after
        its in-flight messages drain) and raise :class:`RankFailedError`.
        Otherwise this degrades to the historical whole-world abort.
        The world barrier is broken permanently either way — a full-world
        barrier can never complete once a member is dead; survivors use
        :meth:`Communicator.shrink` for post-failure synchronisation.
        """
        if not self.resilient:
            # Set the abort flag BEFORE marking the rank dead: waiters
            # check abort first, so survivors keep unwinding with the
            # historical secondary SimMpiError, never a racy
            # RankFailedError that could win root-cause selection.
            self.abort_event.set()
        with self._cv:
            self._failed.setdefault(int(rank), exc)
            self._activity += 1
            self._cv.notify_all()
        self._barrier.abort()

    def failed_ranks(self) -> tuple[int, ...]:
        """The agreed set of dead ranks, ascending (ULFM's failure set)."""
        with self._cv:
            return tuple(sorted(self._failed))

    def is_failed(self, rank: int) -> bool:
        with self._cv:
            return rank in self._failed

    def alive_ranks(self) -> tuple[int, ...]:
        with self._cv:
            return tuple(r for r in range(self.nranks) if r not in self._failed)

    def failure_cause(self, rank: int) -> BaseException | None:
        with self._cv:
            return self._failed.get(rank)

    def _quiet_locked(self, key: tuple) -> bool:
        """Whether channel *key* can never produce another message.

        Caller holds ``_cv``.  True only when the channel is empty AND
        nothing is delay-scheduled, scheduler-held, pump-pending or
        retransmittable on it — the deterministic half of dead-peer
        declaration: a waiter declares its source dead only after every
        message the source physically transmitted has been drained, so
        the delivered-message set is interleaving-independent.
        """
        if self._channels.get(key):
            return False
        if self._pending_delays.get(key):
            return False
        if self.scheduler is not None and self.scheduler.held_items(key):
            return False
        src, dst, tag = key
        with self._state_lock:
            for s, d, t, _seq in self._unacked:
                if s == src and d == dst and t == tag:
                    return False  # the reliable transport can still redeliver
        if self._pump is not None and self._pump.pending_items(key):
            return False
        return True

    # ---- wire layer (fault injection lives here) -------------------------

    def wire_send(
        self,
        phase: str,
        src: int,
        dst: int,
        tag: Any,
        item: Any,
        *,
        index: int,
        attempt: int = 0,
    ) -> None:
        """One physical transmission src->dst: apply faults, record bytes.

        Every physical copy put on (or dropped from) the wire is
        recorded in the traffic statistics — lost and duplicated bytes
        cost bandwidth exactly like delivered ones.
        """
        if self.faults is None:
            # Fault-free fast path: one copy, no delay — skip the
            # deliveries bookkeeping on the per-message hot path.
            self.stats.record_message(phase, src, dst, self._wire_bytes(item))
            self._put((src, dst, tag), item)
            return
        deliveries: list[tuple[Any, float]] = [(item, 0.0)]
        if self.faults is not None:
            for spec in self.faults.actions_for(phase, src, dst, index, attempt):
                if spec.kind == "drop":
                    for payload, _ in deliveries:
                        self.stats.record_message(
                            phase, src, dst, self._wire_bytes(payload)
                        )
                    deliveries = []
                elif spec.kind == "duplicate":
                    deliveries = deliveries + deliveries
                elif spec.kind == "delay":
                    deliveries = [(p, d + spec.delay_s) for p, d in deliveries]
                elif spec.kind in ("truncate", "bitflip"):
                    deliveries = [
                        (self._corrupt(spec, p), d) for p, d in deliveries
                    ]
        key = (src, dst, tag)
        for payload, delay in deliveries:
            self.stats.record_message(phase, src, dst, self._wire_bytes(payload))
            if delay > 0.0:
                self._delayed_put(key, payload, delay)
            else:
                self._put(key, payload)

    @staticmethod
    def _wire_bytes(item: Any) -> int:
        if isinstance(item, _Envelope):
            return _payload_bytes(item.payload)
        return _payload_bytes(item)

    @staticmethod
    def _corrupt(spec, item: Any) -> Any:
        if isinstance(item, _Envelope):
            return _Envelope(
                seq=item.seq,
                phase=item.phase,
                payload=corrupt_payload(spec, item.payload),
                crc=item.crc,
                nbytes=item.nbytes,
            )
        return corrupt_payload(spec, item)

    # ---- reliable-transport bookkeeping ----------------------------------

    def next_send_seq(self, src: int, dst: int, tag: Any) -> int:
        with self._state_lock:
            key = (src, dst, tag)
            seq = self._send_seq.get(key, 0)
            self._send_seq[key] = seq + 1
            return seq

    def register_unacked(self, src: int, dst: int, tag: Any, env: _Envelope) -> None:
        with self._state_lock:
            self._unacked[(src, dst, tag, env.seq)] = [env, 0]

    def has_unacked(self, src: int, dst: int, tag: Any, seq: int) -> bool:
        with self._state_lock:
            return (src, dst, tag, seq) in self._unacked

    def request_retransmit(self, src: int, dst: int, tag: Any, seq: int) -> bool:
        """Redeliver (src,dst,tag,seq) from the retransmit buffer.

        Returns False when the message was never sent (the receiver is
        simply early) — that wait does not consume a retry budget.  The
        implied NACK control message is charged to the stats.
        """
        with self._state_lock:
            rec = self._unacked.get((src, dst, tag, seq))
            if rec is None:
                return False
            env, attempts = rec
            rec[1] = attempts + 1
        if self.tracer is not None:
            self.tracer.record_retransmit(
                env.phase, src, dst, _payload_bytes(env.payload)
            )
        self.stats.record_retransmit(env.phase, src, dst, _payload_bytes(env.payload))
        if self.transport is not None:
            self.stats.record_ack(env.phase, self.transport.control_nbytes)
        self.wire_send(env.phase, src, dst, tag, env, index=seq, attempt=attempts + 1)
        return True

    def ack(self, src: int, dst: int, tag: Any, env: _Envelope) -> None:
        with self._state_lock:
            self._unacked.pop((src, dst, tag, env.seq), None)
        if self.transport is not None:
            self.stats.record_ack(env.phase, self.transport.control_nbytes)
        with self._cv:
            # An ack completes the matching transport SendRequest.
            self._activity += 1
            self._cv.notify_all()

    def shutdown(self) -> None:
        """Release background resources (the link-pump thread, if any)."""
        if self._pump is not None:
            self._pump.stop()

    def recv_state(self, src: int, dst: int, tag: Any) -> _RecvState:
        with self._state_lock:
            key = (src, dst, tag)
            st = self._recv_state.get(key)
            if st is None:
                st = self._recv_state[key] = _RecvState(self.transport.retry_timeout)
            return st

    def comm(self, rank: int) -> "Communicator":
        return Communicator(self, rank)


class Request:
    """Handle for one nonblocking operation (MPI request semantics).

    ``wait()`` blocks until completion and returns the operation's value
    (the payload for a receive, ``None`` for a send); ``test()`` returns
    ``(done, value)`` without blocking.  Both are idempotent: once a
    request has been claimed, further calls return the cached value.

    Outstanding-request *depth* is charged to the traffic statistics at
    fixed program points — post time here, and the moment completion is
    first observed by the caller (``wait`` returning, ``test`` returning
    True, :func:`waitany` selecting the request).  Claim points are
    program-order-deterministic, so the depth profile is invariant under
    schedule fuzzing even though internal arrival order is not.
    """

    def __init__(self, comm: "Communicator", phase: str) -> None:
        self._comm = comm
        self._world = comm.world
        self._phase = phase
        self._done = False
        self._value: Any = None
        self._world.stats.record_request_post(phase, comm.rank)

    @property
    def completed(self) -> bool:
        """Whether completion has been claimed (via wait/test/waitany)."""
        return self._done

    def _claim(self, value: Any) -> None:
        if not self._done:
            self._done = True
            self._value = value
            self._world.stats.record_request_complete(self._phase, self._comm.rank)

    def _poll(self) -> tuple[bool, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _dead_peers(self) -> tuple[int, ...]:
        """Dead ranks that make this request permanently uncompletable."""
        return ()

    def test(self) -> tuple[bool, Any]:
        """Nonblocking completion check: ``(done, value)``."""
        if self._done:
            return True, self._value
        ok, val = self._poll()
        if ok:
            self._claim(val)
            return True, self._value
        return False, None

    def wait(self, timeout: float | None = None) -> Any:
        """Block until complete; returns the value (DeadlockError on timeout)."""
        if self._done:
            return self._value
        world = self._world
        budget = world.timeout if timeout is None else timeout
        deadline = world.clock() + budget
        while True:
            world.check_abort()
            with world._cv:
                ticks = world._activity
            # Progress engine: a waiting rank services its own posted
            # receives (as MPI progress does inside MPI_Wait).  Without
            # this, two ranks blocked on each other's *consumption* —
            # e.g. both retiring send buffers — would deadlock.
            wake = self._comm._progress()
            ok, val = self._poll()
            if ok:
                self._claim(val)
                return self._value
            dead = self._dead_peers()
            if dead:
                raise RankFailedError(dead, where=f"wait on {self!r}")
            now = world.clock()
            if now >= deadline:
                raise DeadlockError(
                    f"rank {self._comm.rank}: request.wait timed out "
                    f"after {budget}s ({self!r})"
                )
            world._await_activity(
                self._comm.rank, ticks, min(deadline, wake) - now
            )


class SendRequest(Request):
    """Completion handle of :meth:`Communicator.isend`.

    The message is already on the wire; completion means the payload
    buffer may be reused.  On the raw substrate that is when the
    receiver has popped this message (tracked by per-channel consumption
    ordinals); under the reliable transport, when the envelope is acked.
    Note the raw substrate cannot distinguish *which* pop consumed which
    logical send under duplicate faults — combine nonblocking sends with
    fault injection through the transport, which tracks acknowledged
    sequence numbers exactly.
    """

    def __init__(
        self, comm: "Communicator", phase: str, dest: int, tag: int
    ) -> None:
        super().__init__(comm, phase)
        self._key = (comm.rank, dest, tag)
        self._seq: int | None = None  # transport sequence number
        self._ordinal: int | None = None  # raw-substrate consumption ordinal

    def _poll(self) -> tuple[bool, Any]:
        world = self._world
        if self._seq is not None:
            src, dst, tag = self._key
            if not world.has_unacked(src, dst, tag, self._seq):
                return True, None
        elif world.consumed_count(self._key) > (self._ordinal or 0):
            return True, None
        # A send to a dead rank completes by fiat (the buffer is free:
        # nobody will ever consume or ack it) so survivors can retire
        # handles targeting the casualty instead of blocking forever.
        return world.is_failed(self._key[1]), None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        src, dst, tag = self._key
        return f"SendRequest({src}->{dst}, tag={tag}, done={self._done})"


class RecvRequest(Request):
    """Completion handle of :meth:`Communicator.irecv`.

    Posted requests on one channel form a FIFO queue on the world;
    arriving messages fulfil them head-first, so waiting on a later
    request transparently fulfils (and caches) the earlier ones —
    matching MPI's nonovertaking rule.  Fulfilment (payload binding,
    scheduler ``on_recv``) follows channel arrival order; the *trace*
    records the receive at claim time — the point where the program
    actually observed completion — under the posting phase.  Claim-time
    recording is what lets the virtual replay see overlap: a message
    that landed during compute replays as a short (or absent) wait at
    the claim, not as a stall at its arrival.
    """

    def __init__(
        self, comm: "Communicator", phase: str, source: int, tag: int
    ) -> None:
        super().__init__(comm, phase)
        self._source = source
        self._tag = tag
        self._key = (source, comm.rank, tag)
        self._fulfilled = False
        self._rvalue: Any = None

    def _finish(self, payload: Any) -> None:
        """Bind the arrived payload (fulfilment: channel arrival order)."""
        world = self._world
        if world.scheduler is not None:
            world.scheduler.on_recv(world, self._source, self._comm.rank, self._tag)
        self._rvalue = payload
        self._fulfilled = True

    def _claim(self, value: Any) -> None:
        if not self._done and self._world.tracer is not None:
            self._world.tracer.record_recv(
                self._phase,
                self._source,
                self._comm.rank,
                self._tag,
                _payload_bytes(value),
            )
        super()._claim(value)

    def _poll(self) -> tuple[bool, Any]:
        if not self._fulfilled:
            self._comm._drain_pending(self._key)
        return self._fulfilled, self._rvalue

    def _dead_peers(self) -> tuple[int, ...]:
        if self._fulfilled or self._done:
            return ()
        world = self._world
        with world._cv:
            if (
                world._failed
                and self._source in world._failed
                and world._quiet_locked(self._key)
            ):
                return (self._source,)
        return ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecvRequest({self._source}->{self._comm.rank}, "
            f"tag={self._tag}, done={self._done})"
        )


class _CollectiveRequest:
    """Aggregate request of ``ialltoall`` (duck-typed).

    Wraps the member send/receive requests; ``wait`` assembles the
    received list exactly as the blocking collective returns it.  Not a
    :class:`Request`: depth accounting belongs to the member requests.
    """

    def __init__(
        self,
        comm: "Communicator",
        sends: list[SendRequest],
        recvs: dict[int, list[RecvRequest]],
        out: list,
        chunks: int,
    ) -> None:
        self._comm = comm
        self._world = comm.world
        self._sends = sends
        self._recvs = recvs
        self._out = out
        self._chunks = chunks
        self._done = False

    @property
    def completed(self) -> bool:
        return self._done

    def _assemble(self, src: int, parts: list) -> None:
        self._out[src] = parts[0] if self._chunks == 1 else np.concatenate(parts)

    def test(self) -> tuple[bool, Any]:
        if self._done:
            return True, self._out
        pending = [r for rs in self._recvs.values() for r in rs] + self._sends
        if not all(r.test()[0] for r in pending):
            return False, None
        for src, rs in self._recvs.items():
            self._assemble(src, [r.wait() for r in rs])
        self._done = True
        return True, self._out

    def _dead_peers(self) -> tuple[int, ...]:
        dead: set[int] = set()
        for rs in self._recvs.values():
            for r in rs:
                dead.update(r._dead_peers())
        return tuple(sorted(dead))

    def wait(self, timeout: float | None = None) -> list:
        if self._done:
            return self._out
        try:
            for src, rs in self._recvs.items():
                self._assemble(src, [r.wait(timeout=timeout) for r in rs])
            for s in self._sends:
                s.wait(timeout=timeout)
        except CollectiveTimeoutError:
            raise
        except DeadlockError as exc:
            if timeout is not None:
                # An explicitly bounded collective wait expired with no
                # attributed failure: surface the structured timeout.
                raise CollectiveTimeoutError(
                    f"rank {self._comm.rank}: nonblocking collective",
                    timeout,
                    waiting_on=str(exc),
                ) from exc
            raise
        self._done = True
        return self._out


def waitall(requests: Sequence[Any], timeout: float | None = None) -> list:
    """Complete every request; returns their values in request order."""
    return [r.wait(timeout=timeout) for r in requests]


def waitany(
    requests: Sequence[Any], timeout: float | None = None
) -> tuple[int, Any]:
    """Wait until SOME unclaimed request completes: ``(index, value)``.

    Completion order is arrival order, not post order — this is the
    primitive that lets the pipelined SOI consume whichever piece lands
    first.  Already-claimed requests are skipped (inactive, as in MPI);
    returns ``(-1, None)`` when every request is already claimed.
    """
    live = [(i, r) for i, r in enumerate(requests) if not r.completed]
    if not live:
        return -1, None
    world = live[0][1]._world
    budget = world.timeout if timeout is None else timeout
    deadline = world.clock() + budget
    comm = live[0][1]._comm
    while True:
        world.check_abort()
        with world._cv:
            ticks = world._activity
        wake = comm._progress()  # service this rank's posted receives
        for i, r in live:
            if r.completed:
                continue  # claimed through an alias while we swept
            ok, val = r.test()
            if ok:
                return i, val
        dead: set[int] = set()
        for _, r in live:
            if not r.completed:
                dead.update(r._dead_peers())
        if dead:
            raise RankFailedError(sorted(dead), where="waitany")
        now = world.clock()
        if now >= deadline:
            raise DeadlockError(
                f"waitany timed out after {budget}s "
                f"({len(live)} requests outstanding)"
            )
        world._await_activity(comm.rank, ticks, min(deadline, wake) - now)


class Communicator:
    """Rank-local view of a :class:`World` (the ``comm`` of SPMD code)."""

    def __init__(self, world: World, rank: int) -> None:
        if not 0 <= rank < world.nranks:
            raise ValueError(f"rank {rank} out of range [0, {world.nranks})")
        self.world = world
        self.rank = rank
        self._phase = "default"

    # ---- introspection ---------------------------------------------------

    @property
    def size(self) -> int:
        return self.world.nranks

    @property
    def world_rank(self) -> int:
        """This rank's WORLD numbering (== ``rank`` except on splits).

        Traffic statistics and trace timelines are always keyed by world
        ranks; sub-communicators override this so inherited collectives
        account correctly.
        """
        return self.rank

    @property
    def stats(self) -> TrafficStats:
        return self.world.stats

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Label all traffic inside the block (nested labels restore).

        Phase entry is also the fault plan's rank-kill boundary: a
        matching kill fault raises :class:`InjectedFault` here.
        """
        if self.world.faults is not None and self.world.faults.should_kill(
            self.rank, name
        ):
            raise InjectedFault(f"rank {self.rank} killed entering phase {name!r}")
        prev, self._phase = self._phase, name
        try:
            yield
        finally:
            self._phase = prev

    def _check_peer(self, peer: int, what: str) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"{what} rank {peer} out of range [0, {self.size})")

    # ---- tracing ---------------------------------------------------------

    def trace_compute(self, name: str, flops: float, kind: str = "fft") -> None:
        """Record a local compute span of *flops* on this rank's timeline.

        No-op unless a :class:`repro.trace.TraceRecorder` is attached to
        the world.  *kind* selects the cost-model efficiency (``"fft"``
        or ``"conv"``).
        """
        tracer = self.world.tracer
        if tracer is not None:
            tracer.record_compute(name, self.world_rank, name, flops, kind)
        if self.world.virtual_time:
            # DES: the modelled span also advances this rank's virtual
            # clock (the same Section 7.4 cost the replay would charge).
            self.world.advance_compute(self.world_rank, flops, kind)

    @contextmanager
    def _traced_collective(self, name: str) -> Iterator[None]:
        """Bracket a collective so its epoch encloses the member transfers."""
        tracer = self.world.tracer
        if tracer is not None:
            tracer.record_collective_begin(self._phase, self.world_rank, name)
        try:
            yield
        finally:
            if tracer is not None:
                tracer.record_collective_end(self._phase, self.world_rank, name)

    # ---- point-to-point ----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send *obj* to rank *dest* (non-blocking: channels are unbounded)."""
        self._check_peer(dest, "destination")
        self.world.check_abort()
        world = self.world
        if world.scheduler is not None:
            world.scheduler.on_send(world, self.rank, dest, tag)
        if world.tracer is not None:
            world.tracer.record_send(
                self._phase, self.rank, dest, tag, _payload_bytes(obj)
            )
        payload = obj
        if world.fault_hook is not None:
            payload = world.fault_hook(self.rank, dest, tag, payload)
        if world.transport is None:
            # Keep logical-send ordinals aligned with channel consumption
            # even for blocking sends: isend completion counts pops.
            world.next_raw_ordinal((self.rank, dest, tag))
            index = 0
            if world.faults is not None:
                index = world.faults.next_index(self._phase, self.rank, dest)
            world.wire_send(self._phase, self.rank, dest, tag, payload, index=index)
            return
        seq = world.next_send_seq(self.rank, dest, tag)
        crc = payload_checksum(payload) if world.transport.checksums else None
        env = _Envelope(
            seq=seq,
            phase=self._phase,
            payload=payload,
            crc=crc,
            nbytes=_payload_bytes(payload),
        )
        world.register_unacked(self.rank, dest, tag, env)
        world.wire_send(self._phase, self.rank, dest, tag, env, index=seq)

    def recv(self, source: int, tag: int = 0, timeout: float | None = None) -> Any:
        """Blocking receive from rank *source*.

        ``timeout`` bounds this one receive (default: the world timeout).
        Expiry raises :class:`DeadlockError`; a *source* known dead with
        its channel drained raises :class:`RankFailedError` immediately —
        deterministically, regardless of the timeout budget.
        """
        self._check_peer(source, "source")
        budget = self.world.timeout if timeout is None else timeout
        if self.world._pending_recvs.get((source, self.rank, tag)):
            # Posted irecvs on this channel queue ahead of us (MPI's
            # nonovertaking rule): join the FIFO instead of stealing.
            return self.irecv(source, tag).wait(timeout=budget)
        deadline = self.world.clock() + budget
        if self.world.transport is not None:
            got, item = self._reliable_step(source, tag, deadline)
        else:
            item = self.world._get((source, self.rank, tag), deadline)
            got = item is not _TIMEOUT
        if not got:
            raise DeadlockError(
                f"rank {self.rank} timed out receiving from {source} "
                f"(tag={tag}) after {budget}s"
            )
        return self._trace_recv(source, tag, item)

    def _trace_recv(self, source: int, tag: int, payload: Any) -> Any:
        if self.world.scheduler is not None:
            self.world.scheduler.on_recv(self.world, source, self.rank, tag)
        tracer = self.world.tracer
        if tracer is not None:
            tracer.record_recv(
                self._phase, source, self.rank, tag, _payload_bytes(payload)
            )
        return payload

    def _reliable_step(
        self, source: int, tag: int, wait_until: float, fail_dead: bool = True
    ) -> tuple[bool, Any]:
        """The reliable receive on ``source -> self``: ``(got, payload)``.

        The one receive step of the transport, shared by blocking
        :meth:`recv` (*wait_until* = its deadline) and the progress
        engine's poll (*wait_until* = 0.0, i.e. never wait).  Consumes
        what has arrived — acking the in-sequence envelope, discarding
        duplicates and junk, stashing early envelopes — and recovers:
        a corrupt head, or a gap older than the channel's patience whose
        envelope was sent and is not in flight, requests a retransmit
        and spends the channel's retry budget.  Returns ``(False, None)``
        once *wait_until* passes on :meth:`World.clock`.
        """
        world = self.world
        policy = world.transport
        key = (source, self.rank, tag)
        st = world.recv_state(source, self.rank, tag)
        while True:
            expected = st.expected
            env = st.stash.pop(expected, None)
            if env is None:
                if st.since is None:
                    st.since = world.clock()
                patience_end = st.since + st.patience
                got = world._get(key, min(patience_end, wait_until), fail_dead)
                if got is _TIMEOUT:
                    if world.clock() < patience_end:
                        return False, None
                    st.since = world.clock()
                    if world._in_flight(key, expected):
                        continue  # queued or delayed: patience, not loss
                    if not world.has_unacked(source, self.rank, tag, expected):
                        continue  # not sent yet: the sender is simply behind
                    self._request_redelivery(st, source, tag)
                    continue
                if not isinstance(got, _Envelope):
                    # Framing destroyed beyond recognition: drop the junk;
                    # the sequence gap is recovered via the patience path.
                    world.stats.record_corrupt(self._phase)
                    continue
                env = got
                if env.seq < expected:
                    world.stats.record_duplicate(env.phase)
                    continue
                if env.seq > expected:
                    st.stash[env.seq] = env  # reorder buffer
                    continue
            reason = self._integrity_failure(env)
            if reason is not None:
                world.stats.record_corrupt(env.phase)
                if policy.max_retries == 0:
                    raise CorruptMessageError(source, self.rank, tag, env.seq, reason)
                self._request_redelivery(st, source, tag)
                continue
            world.ack(source, self.rank, tag, env)
            st.expected = expected + 1
            st.attempts, st.patience, st.since = 0, policy.retry_timeout, None
            return True, env.payload

    def _request_redelivery(self, st: _RecvState, source: int, tag: int) -> None:
        """Spend one unit of the channel's retry budget on ``st.expected``."""
        policy = self.world.transport
        st.attempts += 1
        st.patience *= policy.backoff
        if st.attempts > policy.max_retries:
            raise RetryExhaustedError(
                source, self.rank, tag, st.expected, st.attempts - 1
            )
        self.world.request_retransmit(source, self.rank, tag, st.expected)
        st.since = self.world.clock()

    def _integrity_failure(self, env: _Envelope) -> str | None:
        if _payload_bytes(env.payload) != env.nbytes:
            return f"size mismatch: got {_payload_bytes(env.payload)}B, declared {env.nbytes}B"
        if (
            self.world.transport.checksums
            and env.crc is not None
            and payload_checksum(env.payload) != env.crc
        ):
            return "checksum mismatch"
        return None

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        """Combined send+receive (safe against head-of-line blocking)."""
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    # ---- nonblocking point-to-point ----------------------------------------

    def isend(self, obj: Any, dest: int, tag: int = 0) -> SendRequest:
        """Nonblocking send: all wire effects happen NOW, completion later.

        Fault injection, transport framing, traffic accounting and trace
        recording run at post time exactly as in :meth:`send` — the
        returned :class:`SendRequest` only defers the "buffer reusable"
        signal.  Payloads travel zero-copy, so do not mutate *obj* until
        the request completes.
        """
        self._check_peer(dest, "destination")
        self.world.check_abort()
        world = self.world
        if world.scheduler is not None:
            world.scheduler.on_send(world, self.rank, dest, tag)
        if world.tracer is not None:
            world.tracer.record_isend(
                self._phase, self.rank, dest, tag, _payload_bytes(obj)
            )
        payload = obj
        if world.fault_hook is not None:
            payload = world.fault_hook(self.rank, dest, tag, payload)
        req = SendRequest(self, self._phase, dest, tag)
        if world.transport is None:
            req._ordinal = world.next_raw_ordinal((self.rank, dest, tag))
            index = 0
            if world.faults is not None:
                index = world.faults.next_index(self._phase, self.rank, dest)
            world.wire_send(self._phase, self.rank, dest, tag, payload, index=index)
            return req
        seq = world.next_send_seq(self.rank, dest, tag)
        crc = payload_checksum(payload) if world.transport.checksums else None
        env = _Envelope(
            seq=seq,
            phase=self._phase,
            payload=payload,
            crc=crc,
            nbytes=_payload_bytes(payload),
        )
        world.register_unacked(self.rank, dest, tag, env)
        world.wire_send(self._phase, self.rank, dest, tag, env, index=seq)
        req._seq = seq
        return req

    def irecv(self, source: int, tag: int = 0) -> RecvRequest:
        """Nonblocking receive: joins the channel's posted-request FIFO."""
        self._check_peer(source, "source")
        self.world.check_abort()
        req = RecvRequest(self, self._phase, source, tag)
        with self.world._cv:
            self.world._pending_recvs.setdefault(
                (source, self.rank, tag), deque()
            ).append(req)
        return req

    def _drain_pending(self, key: tuple) -> float:
        """Fulfil posted irecvs on *key* head-first from available items.

        Returns the :meth:`World.clock` instant by which the channel
        wants another poll: its patience deadline under the reliable
        transport, ``inf`` on the raw substrate.  Raw fulfilment happens
        under ``_cv`` (so FIFO order is atomic with channel pops); trace
        recording runs after release, still in fulfilment order — all of
        a channel's requests belong to one rank thread, so no
        interleaving can reorder them.
        """
        world = self.world
        if world.transport is not None:
            return self._drain_pending_reliable(key)
        ready: list[tuple[RecvRequest, Any]] = []
        with world._cv:
            if world.abort_event.is_set():
                raise SimMpiError("aborted: another rank failed")
            pending = world._pending_recvs.get(key)
            while pending:
                ch = world._channels.get(key)
                if not ch:
                    if world.scheduler is not None and world.scheduler.on_wait(
                        world, key
                    ):
                        continue  # the controller released a held message
                    break
                item = ch.popleft()
                world._note_consumed_locked(key)
                ready.append((pending.popleft(), item))
        for req, item in ready:
            req._finish(item)
        return math.inf

    def _drain_pending_reliable(self, key: tuple) -> float:
        """Transport branch of :meth:`_drain_pending`: poll-mode steps."""
        world = self.world
        source, _, tag = key
        while True:
            with world._cv:
                pending = world._pending_recvs.get(key)
                if not pending:
                    return math.inf
                head = pending[0]
            ok, payload = self._reliable_step(source, tag, 0.0, fail_dead=False)
            if not ok:
                st = world.recv_state(source, self.rank, tag)
                return st.since + st.patience
            with world._cv:
                world._pending_recvs[key].popleft()
            head._finish(payload)

    def _progress(self) -> float:
        """Service every posted receive of this rank (the progress engine).

        Called from request wait loops so that a rank blocked on one
        request keeps consuming messages destined for its other posted
        irecvs — the property that makes "completion = consumption" send
        semantics deadlock-free, just like MPI's progress rule.  Returns
        the earliest instant a serviced channel wants another poll, so
        waiters wake for a due retransmit even when nothing arrives.
        """
        world = self.world
        with world._cv:
            keys = [
                k for k, q in world._pending_recvs.items() if q and k[1] == self.rank
            ]
        return min((self._drain_pending(key) for key in keys), default=math.inf)

    def ialltoall(self, objs: Sequence[Any], chunks: int = 1) -> _CollectiveRequest:
        """Nonblocking chunked personalised all-to-all (tag ``-7``).

        Each off-rank item is split into *chunks* pieces
        (``np.array_split`` along axis 0) and pipelined as independent
        isends; the matching irecvs are posted up front.  ``wait()``
        reassembles and returns the same list :meth:`alltoall` would.
        All ranks must pass the same *chunks* (it is part of the
        collective contract, like counts in MPI); non-array payloads
        require ``chunks=1``.  One all-to-all round is charged, and the
        byte totals equal the blocking collective's exactly.
        """
        if len(objs) != self.size:
            raise ValueError(f"ialltoall needs exactly {self.size} send items")
        if chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {chunks}")
        if self.rank == 0:
            self.stats.record_alltoall(self._phase)
        out: list[Any] = [None] * self.size
        self.stats.record_message(
            self._phase,
            self.world_rank,
            self.world_rank,
            _payload_bytes(objs[self.rank]),
        )
        out[self.rank] = objs[self.rank]
        sends: list[SendRequest] = []
        for dst in range(self.size):
            if dst == self.rank:
                continue
            for part in self._split_chunks(objs[dst], chunks):
                sends.append(self.isend(part, dst, tag=-7))
        recvs = {
            src: [self.irecv(src, tag=-7) for _ in range(chunks)]
            for src in range(self.size)
            if src != self.rank
        }
        return _CollectiveRequest(self, sends, recvs, out, chunks)

    @staticmethod
    def _split_chunks(obj: Any, chunks: int) -> list:
        if chunks == 1:
            return [obj]
        if not isinstance(obj, np.ndarray):
            raise TypeError(
                f"chunked collectives require ndarray payloads, got {type(obj).__name__}"
            )
        return list(np.array_split(obj, chunks))

    # ---- collectives -------------------------------------------------------

    def barrier(self, timeout: float | None = None) -> None:
        """Synchronise all ranks.

        With a rank dead the full-world barrier can never complete:
        survivors get :class:`RankFailedError` naming the failed set
        (use :meth:`shrink` to synchronise the survivors).  An explicit
        ``timeout`` expiring with nobody dead raises the structured
        :class:`CollectiveTimeoutError`.
        """
        self.world.check_abort()
        scheduler = self.world.scheduler
        if scheduler is not None:
            scheduler.on_barrier_enter(self.world, self.rank)
        tracer = self.world.tracer
        if tracer is not None:
            tracer.record_barrier(self._phase, self.rank)
        budget = self.world.timeout if timeout is None else timeout
        try:
            self.world._barrier.wait(timeout=budget)
        except threading.BrokenBarrierError:
            self.world.check_abort()
            failed = self.world.failed_ranks()
            if failed:
                raise RankFailedError(failed, where="barrier") from None
            if timeout is not None:
                raise CollectiveTimeoutError(
                    f"rank {self.rank}: barrier", timeout
                ) from None
            raise DeadlockError(f"rank {self.rank}: barrier broken/timed out") from None
        if scheduler is not None:
            scheduler.on_barrier_exit(self.world, self.rank)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from *root*; every rank returns the payload."""
        self._check_peer(root, "root")
        with self._traced_collective("bcast"):
            if self.rank == root:
                for dst in range(self.size):
                    if dst != root:
                        self.send(obj, dst, tag=-1)
                return obj
            return self.recv(root, tag=-1)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank to *root* (None elsewhere)."""
        self._check_peer(root, "root")
        with self._traced_collective("gather"):
            if self.rank == root:
                out = [None] * self.size
                out[root] = obj
                for src in range(self.size):
                    if src != root:
                        out[src] = self.recv(src, tag=-2)
                return out
            self.send(obj, root, tag=-2)
            return None

    def allgather(self, obj: Any) -> list[Any]:
        """Every rank receives the list of every rank's object."""
        with self._traced_collective("allgather"):
            for dst in range(self.size):
                if dst != self.rank:
                    self.send(obj, dst, tag=-3)
            out = [None] * self.size
            out[self.rank] = obj
            for src in range(self.size):
                if src != self.rank:
                    out[src] = self.recv(src, tag=-3)
            return out

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Root distributes ``objs[i]`` to rank i; returns the local item."""
        self._check_peer(root, "root")
        with self._traced_collective("scatter"):
            if self.rank == root:
                if objs is None or len(objs) != self.size:
                    raise ValueError(f"scatter needs exactly {self.size} items at root")
                for dst in range(self.size):
                    if dst != root:
                        self.send(objs[dst], dst, tag=-4)
                return objs[root]
            return self.recv(root, tag=-4)

    def alltoall(
        self,
        objs: Sequence[Any],
        timeout: float | None = None,
        algorithm: str | None = None,
    ) -> list[Any]:
        """Personalised all-to-all: send ``objs[d]`` to rank d, get one each.

        This is THE global transpose primitive of both FFT algorithms
        (Fig. 3: local permutation followed by the MPI all-to-all).
        Counted as one all-to-all round in the traffic statistics.
        A dead peer raises :class:`RankFailedError` naming it; an
        explicit per-member ``timeout`` expiring with nobody dead raises
        :class:`CollectiveTimeoutError`.

        ``algorithm`` picks the exchange schedule — ``"pairwise"`` (the
        bitwise reference, below), ``"bruck"`` (log P combined rounds)
        or ``"hierarchical"`` (node-aggregated; see
        :mod:`repro.simmpi.alltoall`).  ``None`` defers to the world's
        default.  Every algorithm is a collective contract: all ranks
        must resolve to the same choice, and all return bitwise-identical
        output lists.
        """
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} send items")
        algo = resolve_algorithm(algorithm, self.world)
        if algo != "pairwise":
            from .alltoall import exchange

            return exchange(self, objs, algo, timeout)
        if self.rank == 0:
            self.stats.record_alltoall(self._phase)
        with self._traced_collective("alltoall"):
            for dst in range(self.size):
                if dst != self.rank:
                    self.send(objs[dst], dst, tag=-5)
            out = [None] * self.size
            # Self-delivery is a local copy: accounted as a (rank, rank) message.
            self.stats.record_message(
                self._phase,
                self.world_rank,
                self.world_rank,
                _payload_bytes(objs[self.rank]),
            )
            out[self.rank] = objs[self.rank]
            for src in range(self.size):
                if src != self.rank:
                    out[src] = self._collective_recv(
                        src, tag=-5, timeout=timeout, what="alltoall"
                    )
            return out

    def alltoall_matrix(
        self,
        sendbuf: np.ndarray,
        timeout: float | None = None,
        algorithm: str | None = None,
    ) -> np.ndarray:
        """Array-native personalised all-to-all: row d of *sendbuf* to rank d.

        Semantically ``np.stack(self.alltoall(list(sendbuf), ...))`` —
        same schedules, tags, message counts and byte totals — but the
        hierarchical schedule keeps payloads as a handful of contiguous
        ndarrays per hop instead of P block objects, so thousand-rank
        exchanges are not dominated by per-object overhead.  Row s of
        the returned ``(size, ...)`` array is the block received from
        rank s, bitwise identical to the list form.
        """
        sendbuf = np.asarray(sendbuf)
        if sendbuf.ndim < 2 or sendbuf.shape[0] != self.size:
            raise ValueError(
                f"alltoall_matrix needs a (size, ...) array with leading "
                f"dimension {self.size}, got shape {sendbuf.shape}"
            )
        algo = resolve_algorithm(algorithm, self.world)
        if algo == "hierarchical":
            from .alltoall import exchange_matrix

            return exchange_matrix(self, sendbuf, timeout)
        return np.stack(
            self.alltoall(list(sendbuf), timeout=timeout, algorithm=algo)
        )

    def _collective_recv(
        self, src: int, tag: int, timeout: float | None, what: str
    ) -> Any:
        """One member receive of a blocking collective (timeout mapping).

        An explicitly bounded collective whose member receive times out
        with no attributed failure surfaces the structured
        :class:`CollectiveTimeoutError`; dead peers keep raising
        :class:`RankFailedError` from the receive itself.
        """
        try:
            return self.recv(src, tag=tag, timeout=timeout)
        except (CollectiveTimeoutError, RankFailedError):
            raise
        except DeadlockError as exc:
            if timeout is not None:
                raise CollectiveTimeoutError(
                    f"rank {self.rank}: {what}", timeout, waiting_on=f"rank {src}"
                ) from exc
            raise

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] = None, root: int = 0):
        """Reduce with *op* (default elementwise +) onto *root*."""
        gathered = self.gather(obj, root=root)
        if self.rank != root:
            return None
        combine = op if op is not None else (lambda a, b: a + b)
        acc = gathered[0]
        for item in gathered[1:]:
            acc = combine(acc, item)
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = None):
        """Reduce then broadcast the result to every rank."""
        result = self.reduce(obj, op=op, root=0)
        return self.bcast(result, root=0)

    # ---- communicator splits (MPI_Comm_split) ----------------------------

    def _world_rank_of(self, local: int) -> int:
        """World rank of local rank *local* (identity on the base comm)."""
        return local

    def _split_ctx(self) -> tuple:
        """Context prefix inherited by communicators split off this one."""
        return ()

    def split(
        self, color: Any, key: int | None = None
    ) -> "SubCommunicator | None":
        """Partition this communicator by *color* (MPI's ``MPI_Comm_split``).

        Collective: every member must call it (one allgather of the
        ``(color, key)`` pairs — that coordination traffic is real and
        charged to the current phase).  Ranks sharing a color form a new
        :class:`SubCommunicator`, ordered by ``(key, old rank)`` (*key*
        defaults to the old rank, preserving relative order);
        ``color=None`` opts out and returns ``None``.  Each split gets a
        fresh context id, so its tag space is disjoint from the parent's
        and from every sibling's.  Nested splits compose.
        """
        self._split_count = getattr(self, "_split_count", 0) + 1
        entries = self.allgather((color, self.rank if key is None else int(key)))
        if color is None:
            return None
        members = [
            self._world_rank_of(i)
            for _, i in sorted(
                (k, i) for i, (c, k) in enumerate(entries) if c == color
            )
        ]
        # Deterministic without negotiation: every member executes the
        # same split sequence in lockstep, so (inherited ctx, ordinal,
        # color) is globally unique per sub-communicator.
        ctx = self._split_ctx() + (("split", self._split_count, color),)
        return SubCommunicator(self.world, members, self.world_rank, ctx)

    def split_by_node(
        self,
    ) -> tuple["SubCommunicator", "SubCommunicator | None"]:
        """Split along the world's node topology: ``(node_comm, leader_comm)``.

        ``node_comm`` spans this communicator's members on the local
        node (world-rank order); ``leader_comm`` spans the per-node
        leaders (each group's first member) and is ``None`` on
        non-leaders — the pyuvsim/MPI ``split_type=SHARED`` idiom.
        Membership is pure arithmetic on the world's :class:`NodeMap`:
        no coordination traffic, so it is free to call inside a
        communication phase.
        """
        nodes = self.world.nodes
        groups = self.node_groups()
        my_group = next(g for g in groups if self.rank in g)
        my_node = nodes.node_of(self.world_rank)
        ctx = self._split_ctx()
        node_comm = SubCommunicator(
            self.world,
            [self._world_rank_of(i) for i in my_group],
            self.world_rank,
            ctx + (("node", my_node),),
        )
        leader_comm = None
        if self.rank == my_group[0]:
            leader_comm = SubCommunicator(
                self.world,
                [self._world_rank_of(g[0]) for g in groups],
                self.world_rank,
                ctx + (("leaders",),),
            )
        return node_comm, leader_comm

    def node_groups(self) -> list[list[int]]:
        """This communicator's local ranks grouped by node, node-ascending.

        Each group lists local ranks in ascending order; the first entry
        of each group is its leader.  The hierarchical all-to-all and
        :meth:`split_by_node` both derive their structure from this.

        Memoised: membership and the node map are immutable, and the
        O(P) walk would otherwise repeat per rank per collective —
        O(P²) across a thousand-rank world.  Base communicators share
        one world-level cache (every rank computes the same answer);
        sub-communicators cache per instance.
        """
        base = type(self) is Communicator
        cached = (
            getattr(self.world, "_node_groups_cache", None)
            if base
            else getattr(self, "_node_groups_cache", None)
        )
        if cached is not None:
            return cached
        nodes = self.world.nodes
        groups: dict[int, list[int]] = {}
        for i in range(self.size):
            groups.setdefault(nodes.node_of(self._world_rank_of(i)), []).append(i)
        cached = [groups[n] for n in sorted(groups)]
        if base:
            self.world._node_groups_cache = cached
        else:
            self._node_groups_cache = cached
        return cached

    # ---- failure recovery (mini ULFM) ------------------------------------

    def shrink(self, epoch: int = 0) -> "ShrunkCommunicator":
        """A communicator over the surviving ranks (ULFM's ``MPI_Comm_shrink``).

        Membership is the world's current failed set; *epoch* separates
        successive shrink generations (protocol retry rounds) by shifting
        the collective tags, so traffic from an abandoned earlier round
        can never be mistaken for the current one.
        """
        failed = set(self.world.failed_ranks())
        members = [r for r in range(self.world.nranks) if r not in failed]
        return ShrunkCommunicator(self.world, self.rank, members, epoch=epoch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Communicator(rank={self.rank}/{self.size})"


class ShrunkCommunicator(Communicator):
    """Communicator over the surviving ranks (:meth:`Communicator.shrink`).

    Ranks keep their WORLD numbering for point-to-point traffic (so
    recovery code can address peers by the ranks it already knows), but
    ``size`` and the collectives span only ``members``.  Collective
    *lists* (gather/allgather/scatter/alltoall results and arguments)
    are indexed in member order — position ``i`` belongs to world rank
    ``members[i]`` — exactly as if the survivors had been renumbered.

    The world barrier counts dead ranks and is permanently broken after
    a failure, so :meth:`barrier` here is message-based over the
    members.  Collective tags live in a distinct band (``-1000`` and
    below, strided by *epoch*) so messages of an abandoned
    full-communicator collective — e.g. an ``allgather`` a peer sent
    into before dying — can never be consumed by a shrunk collective.
    """

    def __init__(
        self,
        world: World,
        rank: int,
        members: Sequence[int],
        epoch: int = 0,
    ) -> None:
        super().__init__(world, rank)
        self.members = tuple(sorted(int(m) for m in members))
        if rank not in self.members:
            raise ValueError(
                f"rank {rank} is not a member of the shrunk communicator"
            )
        self.epoch = int(epoch)

    @property
    def size(self) -> int:
        return len(self.members)

    def _ctag(self, base: int) -> int:
        return -1000 + base - 50 * self.epoch

    def _check_peer(self, peer: int, what: str) -> None:
        # Point-to-point keeps world numbering: range-check the world.
        if not 0 <= peer < self.world.nranks:
            raise ValueError(
                f"{what} rank {peer} out of range [0, {self.world.nranks})"
            )

    def _check_member(self, peer: int, what: str) -> None:
        if peer not in self.members:
            raise ValueError(f"{what} rank {peer} is not a surviving member")

    def _root(self, root: int | None) -> int:
        return self.members[0] if root is None else root

    def barrier(self, timeout: float | None = None) -> None:
        """Message-based member barrier (the world barrier is broken)."""
        tracer = self.world.tracer
        if tracer is not None:
            tracer.record_barrier(self._phase, self.rank)
        root = self.members[0]
        tag = self._ctag(-9)
        if self.rank == root:
            for m in self.members[1:]:
                self.recv(m, tag=tag, timeout=timeout)
            for m in self.members[1:]:
                self.send(0, m, tag=tag)
        else:
            self.send(0, root, tag=tag)
            self.recv(root, tag=tag, timeout=timeout)

    def bcast(self, obj: Any, root: int | None = None) -> Any:
        root = self._root(root)
        self._check_member(root, "root")
        with self._traced_collective("bcast"):
            tag = self._ctag(-1)
            if self.rank == root:
                for m in self.members:
                    if m != root:
                        self.send(obj, m, tag=tag)
                return obj
            return self.recv(root, tag=tag)

    def gather(self, obj: Any, root: int | None = None) -> list[Any] | None:
        root = self._root(root)
        self._check_member(root, "root")
        with self._traced_collective("gather"):
            tag = self._ctag(-2)
            if self.rank == root:
                return [
                    obj if m == self.rank else self.recv(m, tag=tag)
                    for m in self.members
                ]
            self.send(obj, root, tag=tag)
            return None

    def allgather(self, obj: Any) -> list[Any]:
        with self._traced_collective("allgather"):
            tag = self._ctag(-3)
            for m in self.members:
                if m != self.rank:
                    self.send(obj, m, tag=tag)
            return [
                obj if m == self.rank else self.recv(m, tag=tag)
                for m in self.members
            ]

    def scatter(self, objs: Sequence[Any] | None, root: int | None = None) -> Any:
        root = self._root(root)
        self._check_member(root, "root")
        with self._traced_collective("scatter"):
            tag = self._ctag(-4)
            if self.rank == root:
                if objs is None or len(objs) != self.size:
                    raise ValueError(
                        f"scatter needs exactly {self.size} items at root"
                    )
                for i, m in enumerate(self.members):
                    if m != root:
                        self.send(objs[i], m, tag=tag)
                return objs[self.members.index(root)]
            return self.recv(root, tag=tag)

    def alltoall(
        self,
        objs: Sequence[Any],
        timeout: float | None = None,
        algorithm: str | None = None,
    ) -> list[Any]:
        if algorithm not in (None, "pairwise"):
            raise NotImplementedError(
                "shrunk communicators exchange pairwise only (survivor sets "
                "have no node structure to aggregate over)"
            )
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} send items")
        if self.rank == self.members[0]:
            self.stats.record_alltoall(self._phase)
        with self._traced_collective("alltoall"):
            tag = self._ctag(-5)
            me = self.members.index(self.rank)
            for i, m in enumerate(self.members):
                if m != self.rank:
                    self.send(objs[i], m, tag=tag)
            out: list[Any] = [None] * self.size
            self.stats.record_message(
                self._phase, self.rank, self.rank, _payload_bytes(objs[me])
            )
            out[me] = objs[me]
            for i, m in enumerate(self.members):
                if m != self.rank:
                    out[i] = self._collective_recv(
                        m, tag=tag, timeout=timeout, what="alltoall(shrunk)"
                    )
            return out

    def alltoall_matrix(
        self,
        sendbuf: np.ndarray,
        timeout: float | None = None,
        algorithm: str | None = None,
    ) -> np.ndarray:
        if algorithm not in (None, "pairwise"):
            raise NotImplementedError(
                "shrunk communicators exchange pairwise only (survivor sets "
                "have no node structure to aggregate over)"
            )
        sendbuf = np.asarray(sendbuf)
        return np.stack(self.alltoall(list(sendbuf), timeout=timeout))

    def reduce(
        self,
        obj: Any,
        op: Callable[[Any, Any], Any] = None,
        root: int | None = None,
    ):
        root = self._root(root)
        gathered = self.gather(obj, root=root)
        if self.rank != root:
            return None
        combine = op if op is not None else (lambda a, b: a + b)
        acc = gathered[0]
        for item in gathered[1:]:
            acc = combine(acc, item)
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = None):
        result = self.reduce(obj, op=op)
        return self.bcast(result)

    def ialltoall(self, objs: Sequence[Any], chunks: int = 1):
        raise NotImplementedError(
            "shrunk communicators support blocking collectives only"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShrunkCommunicator(rank={self.rank}, members={self.members}, "
            f"epoch={self.epoch})"
        )


class SubCommunicator(Communicator):
    """Communicator over a subset of ranks (:meth:`Communicator.split`).

    Unlike :class:`ShrunkCommunicator` (which keeps world numbering so
    recovery code can address peers it already knows), a split follows
    MPI semantics fully: members are RENUMBERED ``0..size-1`` in
    ``(key, old rank)`` order, and every point-to-point and collective
    operation addresses peers by the new local ranks.

    Tag isolation: every wire message carries the communicator's
    context tuple inside the channel tag (``("sub", ctx, tag)``), so two
    sub-communicators — even ones with identical membership — can never
    consume each other's messages, nor the parent's.  Channel tags are
    any-hashable, so this costs nothing.

    All wire effects delegate to an internal world-rank communicator:
    traffic statistics, tracing, fault injection, schedule fuzzing, the
    reliable transport and the zero-copy node pool all observe WORLD
    ranks, exactly as if the user had hand-translated the ranks.
    Inherited collectives (bcast/gather/.../alltoall with every
    algorithm) work unchanged on top of the overridden point-to-point.
    """

    def __init__(
        self,
        world: World,
        members: Sequence[int],
        world_rank: int,
        ctx: tuple = (),
    ) -> None:
        self.world = world
        self.members = tuple(int(m) for m in members)
        wrank = int(world_rank)
        if wrank not in self.members:
            raise ValueError(
                f"world rank {wrank} is not a member of {self.members}"
            )
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members: {self.members}")
        self.ctx = tuple(ctx)
        self.rank = self.members.index(wrank)
        self._wrank = wrank
        self._phase = "default"
        self._base = Communicator(world, wrank)

    # ---- introspection ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def world_rank(self) -> int:
        return self._wrank

    def _world_rank_of(self, local: int) -> int:
        return self.members[local]

    def _split_ctx(self) -> tuple:
        return self.ctx

    def _tag(self, tag: Any) -> tuple:
        return ("sub", self.ctx, tag)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        # Delegate to the base communicator so the fault plan's kill
        # boundary fires on the world rank; mirror the label locally for
        # collective accounting.
        with self._base.phase(name):
            prev, self._phase = self._phase, name
            try:
                yield
            finally:
                self._phase = prev

    # ---- point-to-point (local ranks, world wire) ------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "destination")
        self._base.send(obj, self.members[dest], tag=self._tag(tag))

    def recv(
        self, source: int, tag: int = 0, timeout: float | None = None
    ) -> Any:
        self._check_peer(source, "source")
        return self._base.recv(
            self.members[source], tag=self._tag(tag), timeout=timeout
        )

    def isend(self, obj: Any, dest: int, tag: int = 0) -> SendRequest:
        self._check_peer(dest, "destination")
        return self._base.isend(obj, self.members[dest], tag=self._tag(tag))

    def irecv(self, source: int, tag: int = 0) -> RecvRequest:
        self._check_peer(source, "source")
        return self._base.irecv(self.members[source], tag=self._tag(tag))

    # ---- collectives ------------------------------------------------------

    def barrier(self, timeout: float | None = None) -> None:
        """Message-based member barrier (the world barrier spans everyone)."""
        tracer = self.world.tracer
        if tracer is not None:
            tracer.record_barrier(self._phase, self.world_rank)
        if self.size == 1:
            return
        if self.rank == 0:
            for m in range(1, self.size):
                self.recv(m, tag=-9, timeout=timeout)
            for m in range(1, self.size):
                self.send(0, m, tag=-9)
        else:
            self.send(0, 0, tag=-9)
            self.recv(0, tag=-9, timeout=timeout)

    def shrink(self, epoch: int = 0) -> "ShrunkCommunicator":
        raise NotImplementedError(
            "shrink() operates on world communicators; shrink the parent "
            "and re-split"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubCommunicator(rank={self.rank}/{self.size}, "
            f"world_rank={self._wrank}, ctx={self.ctx})"
        )
