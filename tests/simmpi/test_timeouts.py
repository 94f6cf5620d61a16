"""Timeout semantics of the collective and point-to-point seams.

The contract (ISSUE: robustness): an explicit ``timeout=`` bounds the
operation and expires with a *structured* error — never a hang — while a
peer known dead short-circuits immediately, regardless of the budget.
Fault-free runs must never time out spuriously, under any fuzzed
schedule.

``resilient=True`` runs return a *partial* :class:`SpmdResult` when at
least one rank completes, so a single rank's timeout surfaces in
``result.failures`` rather than aborting the world.
"""

import time

import numpy as np
import pytest

from repro.check.schedules import ScheduleController
from repro.simmpi import (
    CollectiveTimeoutError,
    DeadlockError,
    FaultPlan,
    RankFailedError,
    run_spmd,
    waitany,
)

#: Wall guard on every scenario in this file: timeouts must fire in
#: bounded time, so the run itself is bounded too.
GUARD_S = 20.0


class TestRecvTimeout:
    def test_expiry_is_a_structured_deadlock(self):
        def body(comm):
            if comm.rank == 0:
                comm.recv(1, tag=7, timeout=0.15)
            else:
                time.sleep(0.8)  # alive but silent past rank 0's budget
                return "survived"

        t0 = time.perf_counter()
        out = run_spmd(2, body, resilient=True, timeout=GUARD_S)
        assert time.perf_counter() - t0 < GUARD_S
        err = dict(out.failures)[0]
        assert isinstance(err, DeadlockError)
        assert "timed out" in str(err)
        assert out.values[1] == "survived"
        assert out.degraded

    def test_dead_peer_short_circuits_before_the_budget(self):
        def body(comm):
            if comm.rank == 1:
                with comm.phase("doom"):
                    pass
                return None
            t0 = time.perf_counter()
            try:
                comm.recv(1, tag=7, timeout=GUARD_S)
            except RankFailedError as exc:
                return (time.perf_counter() - t0, exc.ranks)
            raise AssertionError("recv from a dead peer must raise")

        out = run_spmd(
            2,
            body,
            resilient=True,
            faults=FaultPlan().kill(1, phase="doom"),
            timeout=GUARD_S,
        )
        elapsed, ranks = out.values[0]
        assert ranks == (1,)
        assert elapsed < GUARD_S / 2  # detection, not budget expiry

    @pytest.mark.parametrize("seed", range(3))
    def test_expiry_is_deterministic_under_fuzzed_schedules(self, seed):
        def body(comm):
            if comm.rank == 0:
                comm.recv(1, tag=7, timeout=0.15)
            else:
                time.sleep(0.8)

        out = run_spmd(
            2,
            body,
            resilient=True,
            schedule=ScheduleController(seed=seed),
            timeout=GUARD_S,
        )
        assert isinstance(dict(out.failures)[0], DeadlockError)


class TestRequestWaitTimeout:
    def test_irecv_wait_expiry(self):
        def body(comm):
            if comm.rank == 0:
                req = comm.irecv(1, tag=3)
                req.wait(timeout=0.15)
            else:
                time.sleep(0.8)

        out = run_spmd(2, body, resilient=True, timeout=GUARD_S)
        assert isinstance(dict(out.failures)[0], DeadlockError)

    def test_waitany_expiry_and_dead_peer(self):
        def body(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(1, tag=t) for t in (3, 4)]
                try:
                    waitany(reqs, timeout=0.15)
                except DeadlockError as exc:
                    assert "waitany" in str(exc)
                else:
                    raise AssertionError("waitany must time out")
                # Now the peer dies: the SAME pending requests must
                # surface RankFailedError, not another timeout.
                try:
                    waitany(reqs, timeout=GUARD_S)
                except RankFailedError as exc:
                    return exc.ranks
                raise AssertionError("waitany must name the dead peer")
            time.sleep(0.5)
            with comm.phase("doom"):
                pass

        out = run_spmd(
            2,
            body,
            resilient=True,
            faults=FaultPlan().kill(1, phase="doom"),
            timeout=GUARD_S,
        )
        assert out.values[0] == (1,)


class TestBarrierTimeout:
    def test_expiry_with_nobody_dead_is_collective_timeout(self):
        def body(comm):
            if comm.rank == 0:
                comm.barrier(timeout=0.15)
            else:
                time.sleep(0.8)
                try:
                    comm.barrier(timeout=0.1)  # broken by rank 0's expiry
                except (DeadlockError, RankFailedError):
                    pass
                return "survived"

        out = run_spmd(2, body, resilient=True, timeout=GUARD_S)
        err = dict(out.failures)[0]
        assert type(err) is CollectiveTimeoutError
        assert "barrier" in str(err)
        assert out.values[1] == "survived"

    def test_broken_by_death_is_rank_failed_not_timeout(self):
        def body(comm):
            if comm.rank == 1:
                with comm.phase("doom"):
                    pass
                return None
            try:
                comm.barrier(timeout=GUARD_S)
            except RankFailedError as exc:
                return exc.ranks
            raise AssertionError("barrier must surface the death")

        out = run_spmd(
            2,
            body,
            resilient=True,
            faults=FaultPlan().kill(1, phase="doom"),
            timeout=GUARD_S,
        )
        assert out.values[0] == (1,)


class TestNoSpuriousTimeouts:
    @pytest.mark.parametrize("seed", range(10))
    def test_fault_free_exchange_never_times_out(self, seed):
        """Generously bounded ops complete under 10 fuzzed schedules."""

        def body(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.arange(8) + comm.rank, right, tag=1)
            got = comm.recv(left, tag=1, timeout=GUARD_S)
            comm.barrier(timeout=GUARD_S)
            objs = [np.full(4, comm.rank) for _ in range(comm.size)]
            pieces = comm.alltoall(objs, timeout=GUARD_S)
            return got[0], [int(p[0]) for p in pieces]

        out = run_spmd(
            4,
            body,
            resilient=True,
            schedule=ScheduleController(seed=seed),
            timeout=GUARD_S,
        )
        assert not out.degraded
        for rank in range(4):
            first, gathered = out.values[rank]
            assert first == (rank - 1) % 4
            assert gathered == [0, 1, 2, 3]
