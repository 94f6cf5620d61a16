"""The simulated communicator: mpi4py-flavoured message passing on threads.

Each rank runs in its own thread and talks through a rank-local
:class:`Communicator` view of the shared
:class:`~repro.simmpi.transport.World`.  The API follows mpi4py's
lower-case object interface restricted to what the FFT algorithms need:
point-to-point ``send``/``recv``/``sendrecv`` and their nonblocking
``isend``/``irecv`` (:mod:`repro.simmpi.requests`), and the collectives
``barrier``, ``bcast``, ``gather``, ``allgather``, ``scatter``,
``alltoall``, ``reduce``, ``allreduce``.  Receives carry a
timeout so mismatched communication surfaces as a :class:`DeadlockError`
instead of a hung test run.

The one derived communicator is the survivors' communicator of
:meth:`Communicator.shrink`, a :class:`SubCommunicator`: an ordered
tuple of world-rank members plus a context tag.  It overrides
point-to-point only; every collective is written once, here, on top of
it.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..utils import check_int
from .alltoall import hierarchical_matrix
from .errors import (
    CollectiveTimeoutError,
    CorruptMessageError,
    DeadlockError,
    InjectedFault,
    RankFailedError,
    RetryExhaustedError,
    SimMpiError,
)
from .requests import RecvRequest, SendRequest
from .stats import TrafficStats
from .transport import (
    _TIMEOUT,
    World,
    _Envelope,
    _payload_bytes,
    _RecvState,
    payload_checksum,
)

__all__ = ["Communicator", "SubCommunicator"]


class Communicator:
    """Rank-local view of a :class:`World` (the ``comm`` of SPMD code).

    Every communicator is a rank map: ``members[i]`` is the world rank of
    local rank ``i`` (the identity here), and ``ctx`` is the context
    tuple a derived communicator wraps around its tags (empty here).
    """

    ctx: tuple = ()

    def __init__(self, world: World, rank: int) -> None:
        if not 0 <= rank < world.nranks:
            raise ValueError(f"rank {rank} out of range [0, {world.nranks})")
        self.world = world
        self.rank = rank
        self.members: Sequence[int] = range(world.nranks)
        self.size = world.nranks
        # This rank's WORLD numbering (``members[rank]``): traffic
        # statistics and trace timelines are always keyed by world ranks,
        # so inherited collectives account correctly on every communicator.
        self.world_rank = rank

    # ---- introspection ---------------------------------------------------

    @property
    def stats(self) -> TrafficStats:
        return self.world.stats

    @property
    def _phase(self) -> str:
        """This rank's current traffic label (shared by all its communicators)."""
        return self.world._phase_of[self.world_rank]

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Label all traffic inside the block (nested labels restore).

        The label belongs to the world rank, so traffic of derived
        communicators used inside the block is charged to it too.  Phase
        entry is also the fault plan's rank-kill boundary: a matching
        kill fault raises :class:`InjectedFault` here.
        """
        world, wrank = self.world, self.world_rank
        if world.faults is not None and world.faults.should_kill(wrank, name):
            raise InjectedFault(f"rank {wrank} killed entering phase {name!r}")
        labels = world._phase_of
        prev, labels[wrank] = labels[wrank], name
        try:
            yield
        finally:
            labels[wrank] = prev

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
        if self.world.virtual_time:
            # DES: the modelled span advances this rank's virtual clock
            # by the Section 7.4 cost, before the span is stamped.
            self.world.advance_compute(self.world_rank, flops, kind)
        tracer = self.world.tracer
        if tracer is not None:
            tracer.record_compute(name, self.world_rank, name, flops, kind)

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
        self._post(obj, dest, tag, nonblocking=False)

    def _post(
        self, obj: Any, dest: int, tag: Any, nonblocking: bool
    ) -> tuple[int | None, int | None]:
        """Frame *obj* and put it on the wire to *dest* (every send's path).

        Returns ``(ordinal, seq)``: the logical-send ordinal on a raw
        channel, or the envelope's sequence number under the reliable
        transport (the other is ``None``) — what a :class:`SendRequest`
        watches for completion.
        """
        self._check_peer(dest, "destination")
        world = self.world
        world.check_abort()
        phase = self._phase
        if world.scheduler is not None:
            world.scheduler.on_send(world, self.rank, dest, tag)
        if world.transport is None:
            # Keep logical-send ordinals aligned with channel consumption
            # even for blocking sends: isend completion counts pops.
            ordinal, seq = world.next_raw_ordinal((self.rank, dest, tag)), None
            index = 0
            if world.faults is not None:
                index = world.faults.next_index(phase, self.rank, dest)
            world.wire_send(phase, self.rank, dest, tag, obj, index=index)
        else:
            ordinal, seq = None, world.next_send_seq(self.rank, dest, tag)
            crc = payload_checksum(obj) if world.transport.checksums else None
            env = _Envelope(
                seq=seq,
                phase=phase,
                payload=obj,
                crc=crc,
                nbytes=_payload_bytes(obj),
            )
            world.register_unacked(self.rank, dest, tag, env)
            world.wire_send(phase, self.rank, dest, tag, env, index=seq)
        tracer = world.tracer
        if tracer is not None:
            # Stamped once the wire has charged the post (DES: post overhead).
            record = tracer.record_isend if nonblocking else tracer.record_send
            record(phase, self.rank, dest, tag, _payload_bytes(obj))
        return ordinal, seq

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
        ordinal, seq = self._post(obj, dest, tag, nonblocking=True)
        req = SendRequest(self, self._phase, dest, tag)
        req._ordinal, req._seq = ordinal, seq
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
        under ``_cv`` (so FIFO order is atomic with channel pops); the
        DES fulfils only messages its rank's clock has reached (and
        wakes the waiter at the next arrival, see ``DesWorld``).
        """
        world = self.world
        if world.transport is not None:
            return self._drain_pending_reliable(key)
        with world._cv:
            if world.abort_event.is_set():
                raise SimMpiError("aborted: another rank failed")
            ready = world._drain_posted_locked(key)
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
        tracer = self.world.tracer
        if tracer is not None:
            tracer.record_barrier(self._phase, self.rank)

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
        self, objs: Sequence[Any], timeout: float | None = None
    ) -> list[Any]:
        """Personalised all-to-all: send ``objs[d]`` to rank d, get one each.

        The pairwise exchange of arbitrary objects: every rank sends P−1
        messages, whatever the world's schedule (arrays go through
        :meth:`alltoall_matrix`, which honours it).  Counted as one
        all-to-all round in the traffic statistics.  A dead peer raises
        :class:`RankFailedError` naming it; an explicit per-member
        ``timeout`` expiring with nobody dead raises
        :class:`CollectiveTimeoutError`.
        """
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} send items")
        with self._alltoall_epoch(objs[self.rank]):
            for dst in range(self.size):
                if dst != self.rank:
                    self.send(objs[dst], dst, tag=-5)
            out = [None] * self.size
            out[self.rank] = objs[self.rank]
            for src in range(self.size):
                if src != self.rank:
                    out[src] = self._collective_recv(
                        src, tag=-5, timeout=timeout, what="alltoall"
                    )
            return out

    def alltoall_matrix(
        self, sendbuf: np.ndarray, timeout: float | None = None
    ) -> np.ndarray:
        """Personalised all-to-all of one array: row d of *sendbuf* to rank d.

        This is THE global transpose primitive of both FFT algorithms
        (Fig. 3: local permutation followed by the MPI all-to-all).  It
        runs the world's schedule, ``run_spmd(alltoall_algorithm=)``
        (see :mod:`repro.simmpi.alltoall`): ``"pairwise"`` is
        ``np.stack(self.alltoall(list(sendbuf)))``; ``"hierarchical"``
        sends the same bytes as a handful of contiguous row batches per
        hop.  Row s of the returned ``(size, ...)`` array is the block
        received from rank s, bitwise the same under either schedule.
        """
        sendbuf = np.asarray(sendbuf)
        if sendbuf.ndim < 2 or sendbuf.shape[0] != self.size:
            raise ValueError(
                f"alltoall_matrix needs a (size, ...) array with leading "
                f"dimension {self.size}, got shape {sendbuf.shape}"
            )
        if self.world.alltoall_algorithm == "pairwise":
            return np.stack(self.alltoall(list(sendbuf), timeout=timeout))
        with self._alltoall_epoch(sendbuf[self.rank]):
            return hierarchical_matrix(self, sendbuf, timeout)

    @contextmanager
    def _alltoall_epoch(self, own: Any) -> Iterator[None]:
        """Bracket one all-to-all round, whatever its schedule.

        The round is charged once (at local rank 0), the rank's own block
        is a local copy accounted as a ``(rank, rank)`` message, and the
        whole exchange is one traced collective, so ``alltoall_epochs``
        stays 1 per call.
        """
        if self.rank == 0:
            self.stats.record_alltoall(self._phase)
        with self._traced_collective("alltoall"):
            wrank = self.world_rank
            self.stats.record_message(self._phase, wrank, wrank, _payload_bytes(own))
            yield

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

    def node_groups(self) -> list[list[int]]:
        """This communicator's local ranks grouped by node, node-ascending.

        Each group lists local ranks in ascending order; the first entry
        of each group is its leader.  The hierarchical all-to-all derives
        its structure from this.

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
            groups.setdefault(nodes.node_of(self.members[i]), []).append(i)
        cached = [groups[n] for n in sorted(groups)]
        if base:
            self.world._node_groups_cache = cached
        else:
            self._node_groups_cache = cached
        return cached

    # ---- failure recovery (mini ULFM) ------------------------------------

    def shrink(self, epoch: int = 0) -> "SubCommunicator":
        """A communicator over the surviving ranks (ULFM's ``MPI_Comm_shrink``).

        Membership is the world's current alive set in world-rank order,
        renumbered ``0..size-1``; collective lists are indexed by that
        member position.  *epoch* (an int) separates
        successive shrink generations (protocol retry rounds) by context,
        so traffic from an abandoned earlier round — or from a full-world
        collective a peer sent into before dying — can never be mistaken
        for the current one.
        """
        epoch = check_int(epoch, "epoch")
        return SubCommunicator(
            self.world, self.world.alive_ranks(), self.world_rank, (("shrink", epoch),)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Communicator(rank={self.rank}/{self.size})"


class SubCommunicator(Communicator):
    """Communicator over an ordered subset of world ranks.

    The one derived communicator: :meth:`Communicator.shrink` returns
    it.  It follows MPI semantics fully: members are RENUMBERED
    ``0..size-1`` in member order, and every point-to-point and
    collective operation addresses peers by the new local ranks.

    Tag isolation: every wire message carries the communicator's
    context tuple inside the channel tag (``("sub", ctx, tag)``), so two
    sub-communicators — even ones with identical membership, such as two
    shrink epochs — can never consume each other's messages, nor the
    parent's.  Channel tags are any-hashable, so this costs nothing.

    All wire effects delegate to an internal world-rank communicator:
    traffic statistics, tracing, fault injection, schedule fuzzing and
    the reliable transport all observe WORLD ranks, exactly as if the
    user had hand-translated the ranks, and traffic is charged to the
    world rank's current phase.  Inherited
    collectives (bcast/gather/.../alltoall under either schedule) work
    unchanged on top of the overridden point-to-point; only
    :meth:`barrier` differs, because the world barrier spans everyone.
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
        self.size = len(self.members)
        self.world_rank = wrank
        self._base = Communicator(world, wrank)

    def _tag(self, tag: Any) -> tuple:
        return ("sub", self.ctx, tag)

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

    def _progress(self) -> float:
        # Posted receives sit on world-rank channels: the world view serves them.
        return self._base._progress()

    # ---- collectives ------------------------------------------------------

    def barrier(self, timeout: float | None = None) -> None:
        """Message-based member barrier (the world barrier spans everyone)."""
        if self.size == 1:
            return
        with self._traced_collective("barrier"):
            if self.rank == 0:
                for m in range(1, self.size):
                    self.recv(m, tag=-9, timeout=timeout)
                for m in range(1, self.size):
                    self.send(0, m, tag=-9)
            else:
                self.send(0, 0, tag=-9)
                self.recv(0, tag=-9, timeout=timeout)

    def shrink(self, epoch: int = 0) -> "SubCommunicator":
        raise NotImplementedError(
            "shrink() operates on world communicators; shrink the parent"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubCommunicator(rank={self.rank}/{self.size}, "
            f"world_rank={self.world_rank}, ctx={self.ctx})"
        )
