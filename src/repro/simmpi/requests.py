"""Nonblocking requests: MPI's request model over the simulated wire.

:meth:`~repro.simmpi.comm.Communicator.isend` and
:meth:`~repro.simmpi.comm.Communicator.irecv` return :class:`Request`
handles with ``wait``/``test`` semantics; :func:`waitall` and
:func:`waitany` complete sets of them.  An ``isend`` performs ALL wire
effects at post time (fault injection, transport framing, traffic
accounting, trace recording) — only *completion* is deferred, so
per-channel FIFO order, the fault indices and the byte accounting are
identical to the blocking calls.  Waiting runs the posting rank's
progress engine (:meth:`~repro.simmpi.comm.Communicator._progress`), as
MPI progress does inside ``MPI_Wait``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from .errors import DeadlockError, RankFailedError
from .transport import _payload_bytes

if TYPE_CHECKING:  # pragma: no cover - comm.py imports this module
    from .comm import Communicator

__all__ = [
    "Request",
    "SendRequest",
    "RecvRequest",
    "waitall",
    "waitany",
]


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
        if not self._done:
            _wait_first(
                [(0, self)], timeout, f"rank {self._comm.rank}: wait on {self!r}"
            )
        return self._value


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
    actually observed completion — under the posting phase, so a
    message that landed during compute shows as a short (or absent)
    wait at the claim, not as a stall at its arrival.
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
    return _wait_first(live, timeout, f"waitany ({len(live)} requests outstanding)")


def _wait_first(
    live: list[tuple[int, Any]], timeout: float | None, what: str
) -> tuple[int, Any]:
    """The request layer's one wait loop: ``(index, value)`` of the first
    of the ``(index, request)`` pairs *live* to complete.

    Raises :class:`RankFailedError` when none has completed and a dead
    peer makes one uncompletable, :class:`DeadlockError` when *timeout*
    (default: the world timeout) expires; *what* names the wait in both.
    """
    comm = live[0][1]._comm
    world = comm.world
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
        wake = comm._progress()
        for i, r in live:
            if r.completed:
                continue  # claimed through an alias while we swept
            ok, val = r.test()
            if ok:
                return i, val
        dead = [p for _, r in live if not r.completed for p in r._dead_peers()]
        if dead:
            raise RankFailedError(dead, where=what)
        now = world.clock()
        if now >= deadline:
            raise DeadlockError(f"{what}: timed out after {budget}s")
        world._await_activity(comm.world_rank, ticks, min(deadline, wake) - now)

