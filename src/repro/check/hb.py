"""Happens-before checking for shared state under the thread-based cluster.

simmpi ranks are threads, so "distributed" code can accidentally share
mutable Python state — exactly the bug class the bitwise seq≡dist
invariant is most vulnerable to.  The legitimate shared structures
(the five process-wide plan and table caches, each a
:class:`repro.utils.cache.LruCache`) are lock-guarded; this module
provides the audit that proves it and flags anything that is not.

:class:`HbTracker` maintains one vector clock per rank, advanced by the
runtime's only synchronisation edges:

- ``send``  — tick the sender and attach a clock snapshot to the
  message (per-channel FIFO, mirroring delivery order);
- ``recv``  — join the attached snapshot into the receiver, then tick;
- ``barrier`` — join every participant's entry clock into every
  participant (a barrier is an all-to-all synchronisation edge).

Shared-state accesses are reported through :meth:`HbTracker.note_access`
— either directly from test programs or via the one cache observer
that :func:`install_cache_observers` sets (:func:`touch_caches` enters
all five caches from a rank).  Two accesses *race* when they touch
the same state from different ranks, at least one writes, neither
happens-before the other (vector clocks incomparable), and they are not
both protected by the same named guard.  Accesses from threads outside
a rank (plan building on the driver thread) are ignored: the checker
audits cross-rank interleavings, not the sequential driver.

Wire the tracker into a run via
``ScheduleController(seed, hb=tracker)`` — with ``p_hold=0, p_jitter=0``
the controller is a pure observer and the run is unperturbed.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..simmpi.runtime import current_rank

__all__ = ["Access", "HbTracker", "install_cache_observers", "touch_caches"]

#: Bound on recorded accesses per state: the race scan is O(n^2) per
#: state and cache-hammering tests can log tens of thousands of hits.
_MAX_ACCESSES_PER_STATE = 4096


@dataclass(frozen=True)
class Access:
    """One recorded shared-state access with its vector-clock snapshot."""

    state: str
    rank: int
    kind: str  # "r", "w" or "rw"
    guard: str | None
    clock: tuple[int, ...]

    def writes(self) -> bool:
        return "w" in self.kind


def _concurrent(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Neither clock dominates the other: the accesses are unordered."""
    a_le_b = all(x <= y for x, y in zip(a, b))
    b_le_a = all(y <= x for x, y in zip(a, b))
    return not (a_le_b or b_le_a)


class HbTracker:
    """Vector clocks over one SPMD run plus a shared-state access log."""

    def __init__(self, nranks: int) -> None:
        self.nranks = int(nranks)
        self._lock = threading.Lock()
        self.new_run()

    def new_run(self) -> None:
        with self._lock:
            self._clocks = [[0] * self.nranks for _ in range(self.nranks)]
            self._msg_clocks: dict[tuple, deque] = {}
            self._barrier_round = [0] * self.nranks
            self._barrier_clocks: dict[int, dict[int, list[int]]] = {}
            self._accesses: dict[str, list[Access]] = {}
            self._dropped = 0

    # ---- synchronisation edges (fed by ScheduleController) ---------------

    def on_send(self, src: int, dst: int, tag: Any) -> None:
        with self._lock:
            clk = self._clocks[src]
            clk[src] += 1
            self._msg_clocks.setdefault((src, dst, tag), deque()).append(list(clk))

    def on_recv(self, src: int, dst: int, tag: Any) -> None:
        with self._lock:
            q = self._msg_clocks.get((src, dst, tag))
            clk = self._clocks[dst]
            if q:
                # Per-channel FIFO: logical receive order equals logical
                # send order, so the head snapshot is the matching one.
                snap = q.popleft()
                for i, v in enumerate(snap):
                    if v > clk[i]:
                        clk[i] = v
            clk[dst] += 1

    def on_barrier_enter(self, rank: int) -> None:
        with self._lock:
            epoch = self._barrier_round[rank]
            self._barrier_round[rank] += 1
            clk = self._clocks[rank]
            clk[rank] += 1
            self._barrier_clocks.setdefault(epoch, {})[rank] = list(clk)

    def on_barrier_exit(self, rank: int) -> None:
        with self._lock:
            epoch = self._barrier_round[rank] - 1
            entries = self._barrier_clocks.get(epoch, {})
            clk = self._clocks[rank]
            # threading.Barrier guarantees every rank entered before any
            # exits, so all nranks entry clocks are present here.
            for snap in entries.values():
                for i, v in enumerate(snap):
                    if v > clk[i]:
                        clk[i] = v
            clk[rank] += 1

    # ---- shared-state access log -----------------------------------------

    def note_access(
        self,
        state: str,
        kind: str = "rw",
        guard: str | None = None,
        rank: int | None = None,
    ) -> None:
        """Record an access to *state*; attributed to the calling rank.

        *guard* names the lock protecting the access (``None`` =
        unguarded).  Calls from threads outside a simmpi rank are
        ignored.
        """
        if rank is None:
            rank = current_rank()
        if rank is None or not 0 <= rank < self.nranks:
            return
        with self._lock:
            # The access is itself an event: tick the rank's own clock
            # component so distinct accesses always carry distinct,
            # correctly-comparable clocks (without the tick, an access
            # before any communication would compare as ordered against
            # everything).
            clk = self._clocks[rank]
            clk[rank] += 1
            log = self._accesses.setdefault(state, [])
            if len(log) >= _MAX_ACCESSES_PER_STATE:
                self._dropped += 1
                return
            log.append(Access(state, rank, kind, guard, tuple(clk)))

    # ---- race scan --------------------------------------------------------

    def findings(self) -> list[dict]:
        """All HB-concurrent conflicting access pairs, deduplicated.

        A pair conflicts when different ranks touch the same state, at
        least one writes, the accesses are vector-clock concurrent, and
        they are not both covered by the same named guard.
        """
        with self._lock:
            snapshot = {k: list(v) for k, v in self._accesses.items()}
        found: dict[tuple, dict] = {}
        for state, log in snapshot.items():
            for i, a in enumerate(log):
                for b in log[i + 1 :]:
                    if a.rank == b.rank:
                        continue
                    if not (a.writes() or b.writes()):
                        continue
                    if a.guard is not None and a.guard == b.guard:
                        continue
                    if not _concurrent(a.clock, b.clock):
                        continue
                    key = (state, min(a.rank, b.rank), max(a.rank, b.rank),
                           a.guard, b.guard)
                    entry = found.setdefault(
                        key,
                        {
                            "state": state,
                            "ranks": [key[1], key[2]],
                            "guards": sorted(
                                {g or "<unguarded>" for g in (a.guard, b.guard)}
                            ),
                            "pairs": 0,
                        },
                    )
                    entry["pairs"] += 1
        return sorted(found.values(), key=lambda f: (f["state"], f["ranks"]))

    def report(self) -> dict:
        """JSON-safe summary: findings plus audit coverage."""
        with self._lock:
            states = {k: len(v) for k, v in self._accesses.items()}
            dropped = self._dropped
        findings = self.findings()
        return {
            "nranks": self.nranks,
            "states_audited": states,
            "accesses_dropped": dropped,
            "findings": findings,
            "clean": not findings,
        }


def install_cache_observers(tracker: HbTracker):
    """Point the cache observer (every cache's accesses) at *tracker*.

    Returns a zero-argument function restoring the previous observer —
    use in a try/finally (or the tests' fixture) so the zero-cost
    default is re-established.
    """
    from ..utils import cache

    previous = cache.observer
    cache.observer = tracker.note_access

    def restore() -> None:
        cache.observer = previous

    return restore


def touch_caches(comm: Any) -> None:
    """A rank program entering all five process-wide caches, each through
    the code that owns it (*comm*'s size must divide 16)."""
    import numpy as np

    from ..core.plan import soi_plan_for
    from ..dft.cache import plan_for
    from ..dft.twiddle import twiddles
    from ..parallel.transpose import transpose_fft_distributed
    from ..serve.batcher import _nufft_plan

    plan_for(64)
    twiddles(64)
    soi_plan_for(1024, 4)
    transpose_fft_distributed(comm, np.ones(256 // comm.size, np.complex128), 256)
    _nufft_plan(128)
