"""Discrete-event simmpi backend: fiber ranks on virtual time.

The thread backend runs one OS thread per rank on the wall clock, which
caps worlds at a few dozen ranks.  This module swaps the execution
substrate — ``run_spmd(..., engine="des")`` — while leaving every byte
of the :class:`~repro.simmpi.comm.Communicator` semantics in place:

- **Fibers, not free-running threads.**  Each rank still owns an OS
  thread (Python has no portable coroutine stack-switch for code that
  blocks deep inside arbitrary call frames), but the threads are
  strictly cooperative: exactly one is runnable at any instant, and
  control passes by explicit baton handoff (`threading.Event` pairs).
  A completed rank's thread is recycled as the vessel for a
  not-yet-started rank, so ``threading.get_ident()`` genuinely aliases
  across ranks — shared pools must key on rank identity (see
  ``repro.exectx``).
- **Virtual time.**  Every rank carries a virtual clock advanced by the
  Section 7.4 cost model (:class:`repro.trace.TraceCostModel`): compute
  spans via the flop model (``Communicator.trace_compute``), messages
  via a per-sender NIC serialisation + wire latency (the cost model's
  ``fabric`` and ``latency_s``: the one definition of the virtual wire),
  barriers via the synchronisation cost.  A receive advances the clock
  to its message's arrival; a posted irecv is fulfilled only once the
  clock has reached it (a waiter parks until the earliest pending
  arrival), never early because the message is already queued.
  Timeouts and fault delays are virtual timers.  A
  :class:`repro.trace.TraceRecorder` stamps its spans with these
  clocks, so a traced run's timeline *is* the DES run.
- **Deterministic scheduling.**  Runnable fibers are dispatched from a
  heap ordered by ``(virtual clock, arrival ordinal)``; timers fire
  only when *no* fiber is runnable.  Two consequences the test layer
  leans on: a run is a pure function of (program, seed) — no OS
  scheduler noise — and a timeout can only fire when the world is
  otherwise idle, so there are *no spurious timeouts*: a deadline
  expiring means nothing could ever have satisfied the wait.  Real
  deadlocks therefore surface immediately in wall time (the virtual
  clock jumps straight to the earliest deadline).

Delivery, payloads, accounting and hooks are untouched: messages still
move through the same per-channel FIFO deques, ``TrafficStats`` records
the same bytes in the same order, and tracing / fault injection /
schedule fuzzing observe the same callbacks.  That is what makes the
differential conformance group (``check/conformance.py``, group
``"des"``) a zero-tolerance comparison: outputs bitwise, statistics
byte-for-byte.
"""

from __future__ import annotations

import heapq
import math
import threading
from collections import deque
from typing import Any, Callable, Sequence

from .transport import _TIMEOUT, World

__all__ = ["DesWorld", "DesScheduler", "DesBarrier"]

# Fiber states.
_NEW, _READY, _RUNNING, _PARKED, _DONE = range(5)

_SHUTDOWN = object()  # vessel-loop poison pill

#: Stack size for fiber threads when the world is large (bytes).  Fibers
#: run numpy kernels, not deep recursion; 1 MiB is comfortable and lets
#: a 16384-rank world fit in virtual memory.  Small worlds keep the
#: interpreter default so the global ``threading.stack_size`` knob is
#: never touched for ordinary runs.
_FIBER_STACK_BYTES = 1 << 20
_FIBER_STACK_THRESHOLD = 128

_tls = threading.local()  # .sched / .rank of the hosting vessel


class _Vessel:
    """One OS thread hosting one logical rank at a time (recyclable)."""

    __slots__ = ("ev", "task", "thread")

    def __init__(self) -> None:
        self.ev = threading.Event()
        self.task: Any = None
        self.thread: threading.Thread | None = None


class DesScheduler:
    """The deterministic single-runnable fiber scheduler.

    Invariant: at most one fiber executes at any time; the driver thread
    (the ``run_spmd`` caller inside :meth:`execute`) runs only when no
    fiber is runnable, firing virtual timers or declaring the run
    finished.  Handoff is direct fiber→fiber where possible (a parking
    fiber dispatches its successor itself), so one blocking event costs
    two OS context switches, not four.
    """

    def __init__(self, world: "DesWorld", cost: Any, nranks: int) -> None:
        self.world = world
        self.cost = cost
        self.nranks = nranks
        #: Per-rank virtual clocks, seconds.  Advanced by compute spans,
        #: message arrival times, barrier releases and timer firings.
        self.clocks = [0.0] * nranks
        self._lock = threading.RLock()
        self._state = [_NEW] * nranks
        self._ready: list[tuple[float, int, int]] = []  # (clock, seq, rank)
        self._seq = 0
        # (due, seq, kind, data): kind "wake" data=(rank, park_gen);
        # kind "call" data=callback(due).  seq makes entries totally
        # ordered so kind/data are never compared.
        self._timers: list[tuple[float, int, str, Any]] = []
        self._park_gen = [0] * nranks
        self._key_waiters: dict[Any, list[int]] = {}
        self._activity_waiters: set[int] = set()
        self._rank_ev: list[threading.Event | None] = [None] * nranks
        self._vessel_of: list[_Vessel | None] = [None] * nranks
        self._free_vessels: list[_Vessel] = []
        self._all_vessels: list[_Vessel] = []
        self._driver_ev = threading.Event()
        self._ndone = 0
        self._runner: Callable[[int], None] | None = None
        #: Blocking events observed (parks) — scheduler telemetry.
        self.switches = 0

    # ---- introspection ---------------------------------------------------

    def current_rank(self) -> int | None:
        """The rank hosted by the calling vessel, or None off-fiber."""
        if getattr(_tls, "sched", None) is self:
            return _tls.rank
        return None

    def max_clock(self) -> float:
        """The latest virtual instant any rank has reached (makespan)."""
        return max(self.clocks) if self.clocks else 0.0

    # ---- wake sources (called by DesWorld hooks; may hold world._cv) -----

    def _wake_locked(self, rank: int) -> None:
        if self._state[rank] == _PARKED:
            self._state[rank] = _READY
            self._seq += 1
            heapq.heappush(self._ready, (self.clocks[rank], self._seq, rank))

    def notify_key(self, key: Any) -> None:
        """A message landed on (or was released for) channel *key*."""
        with self._lock:
            for rank in tuple(self._key_waiters.get(key, ())):
                self._wake_locked(rank)

    def notify_rank(self, rank: int) -> None:
        """Something that could complete one of *rank*'s requests happened."""
        with self._lock:
            if rank in self._activity_waiters:
                self._wake_locked(rank)

    def notify_all(self) -> None:
        """Global event (abort, rank death): wake every parked fiber."""
        with self._lock:
            for rank in range(self.nranks):
                self._wake_locked(rank)

    # ---- timers ----------------------------------------------------------

    def add_callback_timer(self, due: float, fn: Callable[[float], None]) -> None:
        """Run ``fn(due)`` at virtual instant *due* (delayed delivery)."""
        with self._lock:
            self._seq += 1
            heapq.heappush(self._timers, (due, self._seq, "call", fn))

    def _fire_earliest_timer(self) -> bool:
        """Fire the earliest live timer; False when none remain.

        Only called from the driver with no fiber runnable — firing a
        timer is the definition of virtual time passing.
        """
        callback = None
        due = 0.0
        with self._lock:
            while self._timers:
                due, _, kind, data = heapq.heappop(self._timers)
                if kind == "wake":
                    rank, gen = data
                    if self._state[rank] != _PARKED or self._park_gen[rank] != gen:
                        continue  # stale: the park it guarded already ended
                    if self.clocks[rank] < due:
                        self.clocks[rank] = due
                    self._wake_locked(rank)
                    return True
                callback = data
                break
            else:
                return False
        # Delayed-delivery callbacks run outside the scheduler lock (they
        # re-enter the world, which takes world._cv then this lock).
        callback(due)
        return True

    # ---- parking (the one blocking primitive) ----------------------------

    def block(
        self,
        rank: int,
        keys: Sequence[Any] = (),
        activity: bool = False,
        deadline: float | None = None,
    ) -> None:
        """Park the calling fiber until a wake event or virtual *deadline*.

        *keys* registers interest in channel deliveries; *activity* in
        any event involving this rank (request completion sources).
        Returns after the fiber is re-dispatched; the caller re-checks
        its condition (wakeups may be conservative, never missed).
        """
        with self._lock:
            self._park_gen[rank] += 1
            gen = self._park_gen[rank]
            for k in keys:
                self._key_waiters.setdefault(k, []).append(rank)
            if activity:
                self._activity_waiters.add(rank)
            if deadline is not None:
                self._seq += 1
                heapq.heappush(self._timers, (deadline, self._seq, "wake", (rank, gen)))
            self._state[rank] = _PARKED
            self.switches += 1
        _tls.rank = None
        self._dispatch_next()
        ev = self._rank_ev[rank]
        ev.wait()
        ev.clear()
        with self._lock:
            for k in keys:
                lst = self._key_waiters.get(k)
                if lst is not None:
                    try:
                        lst.remove(rank)
                    except ValueError:
                        pass
                    if not lst:
                        del self._key_waiters[k]
            self._activity_waiters.discard(rank)
            self._state[rank] = _RUNNING
        _tls.rank = rank

    # ---- dispatch --------------------------------------------------------

    def _dispatch_next(self) -> None:
        """Hand the baton to the best ready fiber, or to the driver."""
        with self._lock:
            nxt = None
            while self._ready:
                _, _, r = heapq.heappop(self._ready)
                if self._state[r] in (_READY, _NEW):
                    nxt = r
                    break
            if nxt is None:
                self._driver_ev.set()
                return
            self._state[nxt] = _RUNNING
            ev = self._rank_ev[nxt]
            if ev is None:  # unstarted rank: assign a vessel
                ev = self._acquire_vessel_locked(nxt).ev
        ev.set()

    def _acquire_vessel_locked(self, rank: int) -> _Vessel:
        if self._free_vessels:
            v = self._free_vessels.pop()
        else:
            v = _Vessel()
            v.thread = threading.Thread(
                target=self._vessel_loop,
                args=(v,),
                name=f"des-fiber-{len(self._all_vessels)}",
                daemon=True,
            )
            self._all_vessels.append(v)
            v.thread.start()
        v.task = rank
        self._vessel_of[rank] = v
        self._rank_ev[rank] = v.ev
        return v

    def _vessel_loop(self, v: _Vessel) -> None:
        while True:
            v.ev.wait()
            v.ev.clear()
            rank = v.task
            if rank is _SHUTDOWN:
                return
            try:
                self._run_rank(rank)
            finally:
                with self._lock:
                    self._state[rank] = _DONE
                    self._ndone += 1
                    self._vessel_of[rank] = None
                    self._rank_ev[rank] = None
                    v.task = None
                    self._free_vessels.append(v)
                self._dispatch_next()

    def _run_rank(self, rank: int) -> None:
        _tls.sched = self
        _tls.rank = rank
        try:
            self._runner(rank)
        finally:
            _tls.sched = None
            _tls.rank = None

    # ---- the run ---------------------------------------------------------

    def execute(self, start_order: Sequence[int], runner: Callable[[int], None]) -> None:
        """Run every rank to completion under the deterministic schedule.

        *start_order* seeds the initial ready queue (the DES analogue of
        the thread backend's permuted ``Thread.start`` order — schedule
        fuzzing perturbs it the same way).
        """
        self._runner = runner
        with self._lock:
            for rank in start_order:
                self._state[rank] = _READY
                self._seq += 1
                heapq.heappush(self._ready, (0.0, self._seq, rank))
        prev_stack = None
        if self.nranks >= _FIBER_STACK_THRESHOLD:
            prev_stack = threading.stack_size(_FIBER_STACK_BYTES)
        try:
            self._dispatch_next()
            while True:
                self._driver_ev.wait()
                self._driver_ev.clear()
                with self._lock:
                    finished = self._ndone >= self.nranks
                if finished:
                    break
                if self._fire_earliest_timer():
                    self._dispatch_next()
                    continue
                with self._lock:
                    finished = self._ndone >= self.nranks
                    stuck = [
                        r for r in range(self.nranks) if self._state[r] == _PARKED
                    ]
                if finished:
                    break
                # No ready fiber, no timer, ranks outstanding: a scheduler
                # invariant broke (every park carries a deadline).  Abort
                # so the parked fibers unwind instead of hanging the run.
                if stuck:  # pragma: no cover - defensive
                    self.world.abort()
                    self._dispatch_next()
                    continue
                raise RuntimeError(  # pragma: no cover - defensive
                    "DES scheduler wedged: no ready fiber, no timers, "
                    f"{self.nranks - self._ndone} ranks outstanding"
                )
        finally:
            if prev_stack is not None:
                threading.stack_size(prev_stack)
            for v in self._all_vessels:
                v.task = _SHUTDOWN
                v.ev.set()
            for v in self._all_vessels:
                v.thread.join(timeout=5.0)


class DesBarrier:
    """Virtual-time stand-in for ``threading.Barrier`` (duck-typed).

    Preserves the contract the happens-before checker documents: every
    participant has *entered* (its entry clock recorded) before any
    *exits*, and release advances all participants to the common instant
    ``max(entry clocks) + barrier_s``.  ``abort()`` breaks it
    permanently, exactly like the thread barrier after a rank death.
    """

    def __init__(self, sched: DesScheduler, parties: int) -> None:
        self._sched = sched
        self.parties = parties
        self._count = 0
        self._gen = 0
        self._broken = False
        self._entry_max = 0.0
        self._waiting: list[int] = []

    def wait(self, timeout: float | None = None) -> int:
        sched = self._sched
        rank = sched.current_rank()
        with sched._lock:
            if self._broken:
                raise threading.BrokenBarrierError
            gen = self._gen
            if sched.clocks[rank] > self._entry_max:
                self._entry_max = sched.clocks[rank]
            self._count += 1
            if self._count == self.parties:
                release_at = self._entry_max + sched.cost.barrier_s
                for r in self._waiting:
                    if sched.clocks[r] < release_at:
                        sched.clocks[r] = release_at
                    sched._wake_locked(r)
                if sched.clocks[rank] < release_at:
                    sched.clocks[rank] = release_at
                self._waiting = []
                self._count = 0
                self._entry_max = 0.0
                self._gen += 1
                return 0
            self._waiting.append(rank)
        deadline = None if timeout is None else sched.clocks[rank] + timeout
        sched.block(rank, deadline=deadline)
        with sched._lock:
            if self._gen != gen:
                return 1  # released normally
            try:
                self._waiting.remove(rank)
            except ValueError:
                pass
            if not self._broken:
                # This waiter's timeout fired first: like threading.Barrier,
                # a timeout breaks the barrier for every participant.
                self._broken = True
                for r in self._waiting:
                    sched._wake_locked(r)
                self._waiting = []
            raise threading.BrokenBarrierError

    def abort(self) -> None:
        with self._sched._lock:
            if not self._broken:
                self._broken = True
                for r in self._waiting:
                    self._sched._wake_locked(r)
                self._waiting = []


class DesWorld(World):
    """A :class:`World` whose ranks are virtual-time fibers.

    Every override below changes only *when* things happen (virtual
    clocks, parking) — never *what* happens to payloads, channel order
    or traffic accounting, which is why the differential layer can pin
    this backend to the thread backend at tolerance zero.
    """

    virtual_time = True

    def __init__(
        self,
        nranks: int,
        timeout: float = 120.0,
        faults: Any = None,
        transport: Any = None,
        resilient: bool = False,
        ranks_per_node: int | None = None,
        alltoall_algorithm: str = "pairwise",
        cost_model: Any = None,
    ) -> None:
        super().__init__(
            nranks,
            timeout=timeout,
            faults=faults,
            transport=transport,
            resilient=resilient,
            ranks_per_node=ranks_per_node,
            alltoall_algorithm=alltoall_algorithm,
        )
        if cost_model is None:
            from ..trace.spans import TraceCostModel  # lazy: avoid cycle

            cost_model = TraceCostModel()
        self.cost = cost_model
        self.des = DesScheduler(self, cost_model, nranks)
        self._barrier = DesBarrier(self.des, nranks)
        #: Arrival virtual times, one deque per channel key, aligned with
        #: the channel payload deques (every _put appends exactly one of
        #: each; per-key order is FIFO on both, holds included).
        self._chan_vt: dict[tuple, deque] = {}
        self._nic_free: dict[int, float] = {}
        #: Departure base for delayed deliveries firing off-fiber.
        self._vt_base: float | None = None

    # ---- engine seams ----------------------------------------------------

    def clock(self) -> float:
        rank = self.des.current_rank()
        if rank is not None:
            return self.des.clocks[rank]
        return self.des.max_clock()

    def advance_compute(self, rank: int, flops: float, kind: str) -> None:
        self.des.clocks[rank] += self.cost.compute_time(flops, kind)

    def _await_activity(self, rank: int, ticks: int, remaining: float) -> None:
        now = self.des.clocks[rank]
        deadline = now + remaining
        with self._cv:
            if self._activity != ticks:
                return
            # A posted irecv whose message is queued ahead of its virtual
            # arrival wakes its waiter at that arrival.
            for key, q in self._pending_recvs.items():
                if q and key[1] == rank:
                    arrival = self._next_arrival_locked(key)
                    if now < arrival < deadline:
                        deadline = arrival
        self.des.block(rank, activity=True, deadline=deadline)

    def _get(self, key: tuple, deadline: float, fail_dead: bool = True) -> Any:
        des = self.des
        rank = key[1]  # _get always runs on the receiving rank's fiber
        while True:
            with self._cv:
                if deadline <= des.clocks[rank] < self._next_arrival_locked(key) < math.inf:
                    # A receive that cannot wait takes only what has arrived.
                    return _TIMEOUT
                found, item = self._poll_channel_locked(key, fail_dead)
                if found:
                    return item
                if deadline <= des.clocks[rank]:
                    return _TIMEOUT
            des.block(rank, keys=(key,), deadline=deadline)

    # ---- virtual wire ----------------------------------------------------

    def _arrival_vt(self, key: tuple, item: Any) -> float:
        """Virtual arrival instant of one physical transmission."""
        src, dst = key[0], key[1]
        des = self.des
        base = self._vt_base
        if base is None:
            caller = des.current_rank()
            if caller == src:
                # Posting a send costs the sender CPU time.
                des.clocks[src] += self.cost.post_overhead_s
                base = des.clocks[src]
            elif caller is not None:
                # Receiver-driven retransmission: the NACK flies back to
                # the sender before the copy departs.
                base = des.clocks[caller] + self.cost.latency_s
            else:  # pragma: no cover - defensive (driver-context put)
                base = des.max_clock()
        if src == dst:
            return base
        if self.nodes.same_node(src, dst):
            return base + self.cost.intra_node_s
        wire = self.cost.wire_time(self._wire_bytes(item))
        depart = max(base, self._nic_free.get(src, 0.0))
        self._nic_free[src] = depart + wire
        return depart + wire + self.cost.latency_s + self.cost.delivery_s

    def _put(self, key: tuple, item: Any) -> None:
        vt = self._arrival_vt(key, item)
        with self._cv:
            # One critical section covers the arrival-time append and the
            # delivery itself: at thousands of ranks a second trip through
            # the CV shows.
            self._chan_vt.setdefault(key, deque()).append(vt)
            self._arrive_locked(key, item)
        if self.scheduler is not None:
            # A held message never reached _deliver: wake the receiver so
            # its wait loop runs the controller's release hook.
            self.des.notify_key(key)
            self.des.notify_rank(key[1])

    def _delayed_put(self, key: tuple, item: Any, delay_s: float) -> None:
        holder = [item]
        with self._cv:
            self._pending_delays.setdefault(key, []).append(holder)
        des = self.des
        caller = des.current_rank()
        base = des.clocks[caller] if caller is not None else des.max_clock()

        def fire(due: float) -> None:
            prev, self._vt_base = self._vt_base, due
            try:
                self._put(key, item)
            finally:
                self._vt_base = prev
            with self._cv:
                pending = self._pending_delays.get(key, [])
                for i, h in enumerate(pending):
                    if h is holder:
                        del pending[i]
                        break

        des.add_callback_timer(base + delay_s, fire)

    # ---- wake-event plumbing ---------------------------------------------

    def _deliver(self, key: tuple, item: Any) -> None:
        super()._deliver(key, item)
        # Covers every delivery path, including a schedule controller's
        # cross-channel release of a held message.
        self.des.notify_key(key)
        self.des.notify_rank(key[1])


    def _next_arrival_locked(self, key: tuple) -> float:
        """Virtual arrival of *key*'s next message (queued or held), else inf."""
        vts = self._chan_vt.get(key)
        return vts[0] if vts else math.inf

    def _drain_posted_locked(self, key: tuple) -> list[tuple[Any, Any]]:
        # The base drain, except that a posted irecv is fulfilled only
        # once the receiver's clock has reached the message's arrival:
        # a message physically queued early is not yet there.
        ready = []
        pending = self._pending_recvs.get(key)
        now = self.des.clocks[key[1]]
        while pending and self._next_arrival_locked(key) <= now:
            ch = self._channels.get(key)
            if not ch:
                if self.scheduler is not None and self.scheduler.on_wait(self, key):
                    continue
                break
            item = ch.popleft()
            self._note_consumed_locked(key)
            ready.append((pending.popleft(), item))
        return ready

    def _note_consumed_locked(self, key: tuple) -> None:
        vts = self._chan_vt.get(key)
        if vts:
            vt = vts.popleft()
            dst = key[1]
            if vt > self.des.clocks[dst]:
                self.des.clocks[dst] = vt
        super()._note_consumed_locked(key)
        # Consumption completes raw-substrate send requests of the source.
        self.des.notify_rank(key[0])

    def ack(self, src: int, dst: int, tag: Any, env: Any) -> None:
        super().ack(src, dst, tag, env)
        self.des.notify_rank(src)  # an ack completes the sender's request

    def mark_failed(self, rank: int, exc: BaseException) -> None:
        super().mark_failed(rank, exc)
        self.des.notify_all()

    def abort(self) -> None:
        super().abort()
        self.des.notify_all()
