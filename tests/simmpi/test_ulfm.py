"""Tests for the mini-ULFM layer: multi-rank failure aggregation,
``world.failed_ranks()``, and post-failure ``shrink()`` collectives.

Satellite of the survivable-SOI PR: when several ranks die in one run,
the :class:`SpmdError` report must carry EVERY rank's exception and
traceback (in rank order), not just the root cause — and survivors must
be able to form a shrunken communicator and keep running collectives
over the remaining membership.
"""

import threading
import time

import numpy as np
import pytest

from repro.simmpi import (
    FaultPlan,
    InjectedFault,
    RankFailedError,
    run_spmd,
)
from repro.simmpi.errors import SpmdError

GUARD_S = 20.0


class TestAggregatedFailureReport:
    def test_every_rank_present_in_rank_order(self):
        def body(comm):
            raise InjectedFault(f"rank {comm.rank} self-destructs")

        with pytest.raises(SpmdError) as ei:
            run_spmd(4, body, timeout=GUARD_S)
        err = ei.value
        assert [r for r, _ in err.failures] == [0, 1, 2, 3]
        assert all(isinstance(e, InjectedFault) for _, e in err.failures)
        assert "(4 ranks failed in total)" in str(err)
        for r in range(4):
            assert f"rank {r}: InjectedFault" in str(err)

    def test_tracebacks_captured_per_rank(self):
        def body(comm):
            if comm.rank % 2 == 0:
                raise ValueError(f"boom on {comm.rank}")
            comm.barrier()

        with pytest.raises(SpmdError) as ei:
            run_spmd(4, body, timeout=GUARD_S)
        tbs = ei.value.tracebacks
        assert set(tbs) == {r for r, _ in ei.value.failures}
        for r, exc in ei.value.failures:
            if isinstance(exc, ValueError):
                assert f"boom on {r}" in tbs[r]
                assert "ValueError" in tbs[r]

    def test_root_cause_contract_preserved(self):
        """``rank``/``original`` still name the root cause, so handlers
        written against RankFailure need no change."""

        def body(comm):
            if comm.rank == 2:
                raise ZeroDivisionError("the actual bug")
            comm.recv(source=2)

        with pytest.raises(SpmdError) as ei:
            run_spmd(3, body, timeout=GUARD_S)
        assert ei.value.rank == 2
        assert isinstance(ei.value.original, ZeroDivisionError)
        # ...while the aggregate still reports the collateral damage.
        assert len(ei.value.failures) == 3

    def test_single_failure_message_stays_terse(self):
        def body(comm):
            if comm.rank == 1:
                raise InjectedFault("solo")
            return comm.rank

        with pytest.raises(SpmdError) as ei:
            run_spmd(2, body, timeout=GUARD_S)
        assert "ranks failed in total" not in str(ei.value)


class TestFailedRanksAndShrink:
    def test_fault_free_failed_set_is_empty(self):
        def body(comm):
            comm.barrier()
            return comm.world.failed_ranks()

        out = run_spmd(4, body, timeout=GUARD_S)
        assert all(v == () for v in out.values)

    def test_survivors_agree_on_the_failed_set(self):
        def body(comm):
            with comm.phase("doom"):
                pass
            try:
                comm.barrier()
            except RankFailedError:
                pass
            return comm.world.failed_ranks()

        out = run_spmd(
            4,
            body,
            resilient=True,
            faults=FaultPlan().kill(2, phase="doom"),
            timeout=GUARD_S,
        )
        assert dict(out.failures).keys() == {2}
        for rank, got in enumerate(out.values):
            if rank != 2:
                assert got == (2,)

    def test_a_completed_barrier_survives_a_later_death(self):
        """A rank that a completed world barrier released never sees a
        peer that died after leaving it as a barrier failure: the death
        surfaces in the next operation that needs the dead rank."""

        def body(comm):
            sub = comm.shrink()
            comm.barrier()
            with comm.phase("doom"):
                pass
            try:
                sub.allgather(comm.rank)
            except RankFailedError as exc:
                return ("failed", exc.ranks)
            return ("ok", None)

        for _ in range(40):
            out = run_spmd(
                4,
                body,
                resilient=True,
                faults=FaultPlan().kill(2, phase="doom"),
                timeout=GUARD_S,
            )
            assert dict(out.failures).keys() == {2}
            for rank in (0, 1, 3):
                assert out.values[rank] == ("failed", (2,))

    def test_abort_spares_a_released_waiter_that_has_not_woken(self):
        """The waiter wakes only after the abort (the releasing rank
        holds the barrier's lock through both), and still returns."""
        from repro.simmpi.transport import _Barrier

        barrier, outcome = _Barrier(2), []

        def waiter():
            try:
                barrier.wait(timeout=GUARD_S)
                outcome.append("released")
            except threading.BrokenBarrierError:
                outcome.append("broken")

        t = threading.Thread(target=waiter)
        t.start()
        while barrier._count < 1:
            time.sleep(1e-3)
        with barrier._cond:
            barrier.wait()
            barrier.abort()
        t.join(GUARD_S)
        assert outcome == ["released"]
        with pytest.raises(threading.BrokenBarrierError):
            barrier.wait()

    def test_shrink_collectives_span_only_survivors(self):
        def body(comm):
            with comm.phase("doom"):
                pass
            try:
                comm.barrier()
            except RankFailedError:
                pass
            shrunk = comm.shrink()
            assert shrunk.size == 3
            return shrunk.allgather(comm.rank)

        out = run_spmd(
            4,
            body,
            resilient=True,
            faults=FaultPlan().kill(1, phase="doom"),
            timeout=GUARD_S,
        )
        for rank in (0, 2, 3):
            assert out.values[rank] == [0, 2, 3]

    def test_shrink_epochs_do_not_cross_talk(self):
        """Two successive shrink generations over the same survivors:
        traffic from the first round must not satisfy the second."""

        def body(comm):
            with comm.phase("doom"):
                pass
            try:
                comm.barrier()
            except RankFailedError:
                pass
            first = comm.shrink(epoch=0).allgather(("a", comm.rank))
            second = comm.shrink(epoch=1).allgather(("b", comm.rank))
            return first, second

        out = run_spmd(
            4,
            body,
            resilient=True,
            faults=FaultPlan().kill(3, phase="doom"),
            timeout=GUARD_S,
        )
        for rank in (0, 1, 2):
            first, second = out.values[rank]
            assert first == [("a", 0), ("a", 1), ("a", 2)]
            assert second == [("b", 0), ("b", 1), ("b", 2)]

    @pytest.mark.parametrize("engine", ["thread", "des"])
    def test_splits_of_survivors_span_survivors(self, engine):
        """A shrunk communicator maps its local ranks to the SURVIVORS'
        world ranks: dead rank 1 is in none of its collectives, and its
        node groups are the survivors' (world ranks 2 and 3, local ranks
        1 and 2, share node 1)."""

        def body(comm):
            with comm.phase("doom"):
                pass
            try:
                comm.barrier()
            except RankFailedError:
                pass
            shrunk = comm.shrink()
            return (
                shrunk.members,
                shrunk.allgather(comm.rank),
                shrunk.node_groups(),
            )

        out = run_spmd(
            4,
            body,
            ranks_per_node=2,
            resilient=True,
            engine=engine,
            faults=FaultPlan().kill(1, phase="doom"),
            timeout=GUARD_S,
        )
        assert dict(out.failures).keys() == {1}
        for rank in (0, 2, 3):
            assert out.values[rank] == ((0, 2, 3), [0, 2, 3], [[0], [1, 2]])

    @pytest.mark.parametrize(
        "bad",
        [True, 1.5, "1", np.float64(1.0)],
        ids=["bool", "float", "str", "np.float64"],
    )
    def test_non_integer_epoch_rejected(self, bad):
        def body(comm):
            with pytest.raises(TypeError, match="epoch"):
                comm.shrink(epoch=bad)
            return comm.shrink(epoch=np.int64(1)).allgather(comm.rank)

        assert run_spmd(2, body, timeout=GUARD_S).values == [[0, 1], [0, 1]]
