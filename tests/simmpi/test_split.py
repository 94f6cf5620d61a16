"""Tests for the derived communicator: :class:`SubCommunicator`, which
``shrink`` splits off the world — renumbering, tag-space isolation from
the parent and between epochs, the member barrier, world-rank traffic
accounting — and the node grouping the hierarchical all-to-all uses."""

import numpy as np
import pytest

from repro.simmpi import (
    FaultPlan,
    RankFailedError,
    SubCommunicator,
    run_spmd,
)

GUARD_S = 30.0


def _survivors(comm, epoch=0):
    """Wait out the kill in phase ``doom``, then shrink to the survivors."""
    with comm.phase("doom"):
        pass
    try:
        comm.barrier()
    except RankFailedError:
        pass
    return comm.shrink(epoch)


def _run_with_dead_rank(nranks, body, dead=1, **kw):
    return run_spmd(
        nranks, body, resilient=True,
        faults=FaultPlan().kill(dead, phase="doom"), timeout=GUARD_S, **kw,
    )


class TestSplitSemantics:
    def test_split_is_a_subcommunicator_with_world_rank(self):
        """Local ranks renumber the survivors 0..size-1; point-to-point
        addresses local ranks and lands on the survivors' world ranks."""

        def body(comm):
            sub = _survivors(comm)
            assert isinstance(sub, SubCommunicator)
            right, left = (sub.rank + 1) % sub.size, (sub.rank - 1) % sub.size
            sub.send(("blocking", comm.rank), right, tag=1)
            got = sub.recv(left, tag=1)
            req = sub.isend(("nonblocking", comm.rank), right, tag=2)
            igot = sub.irecv(left, tag=2).wait()
            req.wait()
            return sub.rank, sub.world_rank, sub.members, got, igot

        res = _run_with_dead_rank(4, body)
        assert dict(res.failures).keys() == {1}
        # World ranks 0, 2, 3 are local ranks 0, 1, 2.
        assert res.values[0] == (0, 0, (0, 2, 3), ("blocking", 3), ("nonblocking", 3))
        assert res.values[2] == (1, 2, (0, 2, 3), ("blocking", 0), ("nonblocking", 0))
        assert res.values[3] == (2, 3, (0, 2, 3), ("blocking", 2), ("nonblocking", 2))

    def test_nonmember_construction_rejected(self):
        def body(comm):
            with pytest.raises(ValueError):
                SubCommunicator(comm.world, [0], 1)
            with pytest.raises(ValueError):
                SubCommunicator(comm.world, [0, 0, 1], 0)

        run_spmd(2, body)


class TestSplitByNode:
    def test_node_groups(self):
        """A shrunk communicator groups its LOCAL ranks by the survivors'
        nodes: world ranks 2 and 3 (local 1 and 2) share node 1."""

        def body(comm):
            return _survivors(comm).node_groups()

        res = _run_with_dead_rank(4, body, ranks_per_node=2)
        for rank in (0, 2, 3):
            assert res.values[rank] == [[0], [1, 2]]

    def test_flat_world_every_rank_leads_itself(self):
        res = run_spmd(3, lambda comm: comm.node_groups())
        for rank in range(3):
            assert res.values[rank] == [[0], [1], [2]]

    def test_ragged_tail_node(self):
        res = run_spmd(5, lambda comm: comm.node_groups(), ranks_per_node=2)
        assert res.values[0] == [[0, 1], [2, 3], [4]]


class TestTagSpaceIsolation:
    def test_sibling_splits_do_not_cross_talk(self):
        # Two epochs with the same members run identically-tagged
        # traffic side by side; the per-epoch context keeps them apart.
        def body(comm):
            first, second = comm.shrink(epoch=0), comm.shrink(epoch=1)
            right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            first.send(("first", comm.rank), dest=right, tag=7)
            second.send(("second", comm.rank), dest=right, tag=7)
            return second.recv(source=left, tag=7), first.recv(source=left, tag=7)

        res = run_spmd(4, body)
        for rank in range(4):
            left = (rank - 1) % 4
            assert res.values[rank] == (("second", left), ("first", left))

    def test_parent_and_child_tags_are_disjoint(self):
        # Same (src, dst, tag) triple on the parent and the child:
        # each message must land on the communicator it was sent on.
        def body(comm):
            sub = comm.shrink()  # same membership as the parent
            if comm.rank == 0:
                comm.send("parent", dest=1, tag=3)
                sub.send("child", dest=1, tag=3)
                return None
            if comm.rank == 1:
                # Drain in the opposite order to the sends.
                child = sub.recv(source=0, tag=3)
                parent = comm.recv(source=0, tag=3)
                return parent, child
            return None

        res = run_spmd(2, body)
        assert res.values[1] == ("parent", "child")

    def test_successive_splits_get_fresh_contexts(self):
        def body(comm):
            first = comm.shrink(epoch=0)
            second = comm.shrink(epoch=1)
            if comm.rank == 0:
                first.send("one", dest=1)
                second.send("two", dest=1)
                return None
            b = second.recv(source=0)
            a = first.recv(source=0)
            return a, b

        res = run_spmd(2, body)
        assert res.values[1] == ("one", "two")

    def test_subcommunicator_collectives_and_barrier(self):
        """The member barrier completes without the dead rank (the world
        barrier would raise), and the inherited collectives span the
        survivors only."""

        def body(comm):
            sub = _survivors(comm)
            total = sub.allreduce(comm.rank)
            sub.barrier()
            objs = [np.full(2, comm.rank, dtype=float) for _ in range(sub.size)]
            pieces = sub.alltoall(objs)
            return total, np.stack(pieces)

        res = _run_with_dead_rank(4, body)
        for rank in (0, 2, 3):
            total, pieces = res.values[rank]
            assert total == 5
            np.testing.assert_array_equal(pieces[:, 0], [0.0, 2.0, 3.0])

    def test_traffic_charged_at_world_ranks(self):
        def body(comm):
            sub = _survivors(comm)
            with comm.phase("sub"):
                # Local ranks 0 and 1 are world ranks 0 and 2.
                if sub.rank == 0:
                    sub.send(np.zeros(4), dest=1)
                elif sub.rank == 1:
                    sub.recv(source=0)

        res = _run_with_dead_rank(4, body)
        pairs = res.stats.phase("sub").bytes_by_pair
        assert pairs == {(0, 2): 32}

    def test_shrink_on_subcommunicator_raises(self):
        def body(comm):
            sub = comm.shrink()
            with pytest.raises(NotImplementedError):
                sub.shrink()

        run_spmd(2, body)


class TestSplitUnderAdversity:
    def test_split_deterministic_under_schedule_fuzzing(self):
        from repro.check import ScheduleController

        def body(comm):
            sub = _survivors(comm)
            gathered = sub.allgather(("v", comm.rank))
            buf = np.full((sub.size, 4), comm.rank, dtype=float)
            return gathered, sub.alltoall_matrix(buf)

        kw = dict(ranks_per_node=2, alltoall_algorithm="hierarchical")
        baseline = _run_with_dead_rank(4, body, **kw)
        for seed in range(5):
            fuzzed = _run_with_dead_rank(
                4, body, schedule=ScheduleController(seed=seed), **kw
            )
            for rank in (0, 2, 3):
                assert fuzzed.values[rank][0] == baseline.values[rank][0]
                assert np.array_equal(
                    fuzzed.values[rank][1], baseline.values[rank][1]
                )

    def test_kill_inside_subcommunicator_collective_is_structured(self):
        def body(comm):
            sub = comm.shrink()
            sub.barrier()  # every rank shrinks before rank 2 dies
            with comm.phase("doom"):
                pass
            try:
                sub.allgather(comm.rank)
            except RankFailedError as exc:
                return ("failed", exc.ranks)
            return ("ok", None)

        res = run_spmd(
            4, body,
            resilient=True,
            faults=FaultPlan().kill(2, phase="doom"),
            timeout=GUARD_S,
        )
        assert dict(res.failures).keys() == {2}
        for rank in (0, 1, 3):
            assert res.values[rank] == ("failed", (2,))
