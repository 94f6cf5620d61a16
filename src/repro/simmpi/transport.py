"""The simulated wire: channels, fault injection and the reliable transport.

One :class:`World` holds the shared state of an SPMD execution: per-channel
FIFO queues guarded by one world-wide condition variable (receivers block
on the condition — no polling — and an abort on any rank wakes every
blocked receiver immediately), the failure set of the mini ULFM layer, and
the traffic statistics.  Every physical transmission goes through
:meth:`World.wire_send`, which records it in the shared
:class:`TrafficStats`; NumPy payloads are counted by ``nbytes`` (they are
handed over zero-copy — the *simulation* moves references, the
*accounting* moves bytes).

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
which keeps retry counts bit-reproducible for a given fault seed.  The
receiver's step lives in :meth:`~repro.simmpi.comm.Communicator._reliable_step`;
its retry budget lives here, on the channel (:class:`_RecvState`).
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

import numpy as np

from .alltoall import ALGORITHMS
from .errors import RankFailedError, SimMpiError
from .faults import FaultPlan, corrupt_payload
from .nodes import FABRIC_HEADER_BYTES, NodeMap
from .stats import TrafficStats

__all__ = ["World", "TransportPolicy"]

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


def _reframe(item: Any, fn: Callable[[Any], Any]) -> Any:
    """Apply *fn* to a message's payload, keeping any envelope's framing.

    The envelope's seq/CRC/nbytes stay those of the original send, so the
    receiver's integrity check judges the new payload against them.
    """
    if not isinstance(item, _Envelope):
        return fn(item)
    payload = fn(item.payload)
    return item if payload is item.payload else replace(item, payload=payload)


def _carries(items: Iterable[Any], seq: int) -> bool:
    """Whether *items* include the envelope numbered *seq*."""
    return any(isinstance(item, _Envelope) and item.seq == seq for item in items)


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


class _Barrier:
    """``threading.Barrier`` whose ``abort`` breaks only the generation
    still filling: a waiter a completed generation released returns even
    if it wakes after the abort.  A timeout breaks it for everyone."""

    def __init__(self, parties: int) -> None:
        self.parties = parties
        self._cond = threading.Condition()
        self._count = 0
        self._gen = 0
        self._broken = False

    def wait(self, timeout: float | None = None) -> None:
        with self._cond:
            if self._broken:
                raise threading.BrokenBarrierError
            gen = self._gen
            self._count += 1
            if self._count == self.parties:
                self._count = 0
                self._gen += 1
                self._cond.notify_all()
                return
            self._cond.wait_for(lambda: self._gen != gen or self._broken, timeout)
            if self._gen != gen:
                return
            self._broken = True
            self._cond.notify_all()
            raise threading.BrokenBarrierError

    def abort(self) -> None:
        with self._cond:
            self._broken = True
            self._cond.notify_all()


class World:
    """Shared state of one SPMD execution: channels, barrier, stats.

    Created by :func:`repro.simmpi.runtime.run_spmd`; user code only
    sees per-rank :class:`~repro.simmpi.comm.Communicator` views.
    """

    def __init__(
        self,
        nranks: int,
        timeout: float = _DEFAULT_TIMEOUT,
        faults: FaultPlan | None = None,
        transport: TransportPolicy | None = None,
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
        # world (every rank its own node).  TrafficStats splits bytes
        # into intra-node vs inter-node by it.
        self.nodes = NodeMap(nranks, ranks_per_node)
        self.alltoall_algorithm = alltoall_algorithm
        self.stats = TrafficStats()
        self.stats.configure_topology(self.nodes, header_bytes=FABRIC_HEADER_BYTES)
        # Traffic label of each world rank, set by Communicator.phase.  It
        # lives here, not on a communicator, so that every communicator of
        # a rank (world or derived) charges its traffic to the same phase.
        self._phase_of = ["default"] * nranks
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
        self._barrier = _Barrier(nranks)
        self.abort_event = threading.Event()
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

    def _deliver(self, key: tuple, item: Any) -> None:
        """Append *item* to its channel.  Caller holds ``_cv`` and notifies."""
        ch = self._channels.get(key)
        if ch is None:
            ch = self._channels[key] = deque()
        ch.append(item)

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
        """Final delivery into the channel (scheduler-aware, takes ``_cv``).

        Payloads go by reference, on the same node or across nodes
        alike: ranks are threads sharing one heap.
        """
        with self._cv:
            self._arrive_locked(key, item)

    def _delayed_put(self, key: tuple, item: Any, delay_s: float) -> None:
        holder = [item]  # identity token (payloads may be ndarrays: no ==)
        with self._cv:
            self._pending_delays.setdefault(key, []).append(holder)

        def fire() -> None:
            # Hand off to the channel first so the message is never
            # invisible to _in_flight between the two steps.
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

    def _drain_posted_locked(self, key: tuple) -> list[tuple[Any, Any]]:
        """Pop queued items into *key*'s posted irecvs, head-first.

        Caller holds ``_cv``.  Returns the ``(request, item)`` pairs to
        fulfil once the lock is released.  A schedule controller may
        release a held message when the channel runs dry.
        """
        ready = []
        pending = self._pending_recvs.get(key)
        while pending:
            ch = self._channels.get(key)
            if not ch:
                if self.scheduler is not None and self.scheduler.on_wait(self, key):
                    continue  # the controller released a held message
                break
            item = ch.popleft()
            self._note_consumed_locked(key)
            ready.append((pending.popleft(), item))
        return ready

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
            if _carries(self._channels.get(key, ()), seq):
                return True
            if _carries((h[0] for h in self._pending_delays.get(key, ())), seq):
                return True
            # Messages held by a schedule controller are physically in
            # flight — the receiver must not count them as lost, or
            # retransmit statistics would diverge between interleavings.
            return self.scheduler is not None and _carries(
                self.scheduler.held_items(key), seq
            )

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
        barrier can never complete once a member is dead (a generation
        that already completed still releases its waiters); survivors use
        :meth:`~repro.simmpi.comm.Communicator.shrink` for post-failure
        synchronisation.
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

    def _quiet_locked(self, key: tuple) -> bool:
        """Whether channel *key* can never produce another message.

        Caller holds ``_cv``.  True only when the channel is empty AND
        nothing is delay-scheduled, scheduler-held or retransmittable on
        it — the deterministic half of dead-peer declaration: a waiter
        declares its source dead only after every message the source
        physically transmitted has been drained, so the delivered-message
        set is interleaving-independent.
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
                deliveries = [(self._corrupt(spec, p), d) for p, d in deliveries]
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
        return _reframe(item, lambda payload: corrupt_payload(spec, payload))

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

    def recv_state(self, src: int, dst: int, tag: Any) -> _RecvState:
        with self._state_lock:
            key = (src, dst, tag)
            st = self._recv_state.get(key)
            if st is None:
                st = self._recv_state[key] = _RecvState(self.transport.retry_timeout)
            return st
