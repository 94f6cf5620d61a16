"""Tests for communicator splitting: ``split``, ``split_by_node``,
nested splits, tag-space isolation, and failure/fuzzing behaviour."""

import numpy as np
import pytest

from repro.simmpi import (
    FaultPlan,
    RankFailedError,
    SubCommunicator,
    run_spmd,
)

GUARD_S = 30.0


class TestSplitSemantics:
    def test_split_partitions_by_color(self):
        def body(comm):
            sub = comm.split(comm.rank % 2)
            return (sub.rank, sub.size, sub.allgather(comm.rank))

        res = run_spmd(4, body)
        assert res.values[0] == (0, 2, [0, 2])
        assert res.values[2] == (1, 2, [0, 2])
        assert res.values[1] == (0, 2, [1, 3])
        assert res.values[3] == (1, 2, [1, 3])

    def test_key_orders_members(self):
        def body(comm):
            # Reverse key: highest old rank becomes local rank 0.
            sub = comm.split(0, key=-comm.rank)
            return (sub.rank, sub.allgather(comm.rank))

        res = run_spmd(4, body)
        assert res.values[3] == (0, [3, 2, 1, 0])
        assert res.values[0] == (3, [3, 2, 1, 0])

    @pytest.mark.parametrize(
        "bad", [True, 1.0, "1"], ids=["bool", "float", "str"]
    )
    def test_non_integer_key_rejected(self, bad):
        def body(comm):
            with pytest.raises(TypeError, match="key"):
                comm.split(0, key=bad)
            # The refusal happens before the coordination allgather, so
            # the communicator stays usable for a well-formed split.
            return comm.split(0, key=-comm.rank).allgather(comm.rank)

        res = run_spmd(2, body)
        assert res.values == [[1, 0], [1, 0]]

    def test_color_none_opts_out(self):
        def body(comm):
            sub = comm.split(None if comm.rank == 0 else "rest")
            if comm.rank == 0:
                return sub
            return sub.allgather(comm.rank)

        res = run_spmd(3, body)
        assert res.values[0] is None
        assert res.values[1] == [1, 2]

    def test_nested_split(self):
        def body(comm):
            half = comm.split(comm.rank // 2)  # {0,1} and {2,3}
            solo = half.split(half.rank)       # singletons
            return (half.size, solo.size, solo.allgather(comm.rank))

        res = run_spmd(4, body)
        for rank in range(4):
            assert res.values[rank] == (2, 1, [rank])

    def test_split_is_a_subcommunicator_with_world_rank(self):
        def body(comm):
            sub = comm.split(comm.rank % 2)
            assert isinstance(sub, SubCommunicator)
            return sub.world_rank

        res = run_spmd(4, body)
        assert res.values == [0, 1, 2, 3]

    def test_nonmember_construction_rejected(self):
        def body(comm):
            with pytest.raises(ValueError):
                SubCommunicator(comm.world, [0], 1)
            with pytest.raises(ValueError):
                SubCommunicator(comm.world, [0, 0, 1], 0)

        run_spmd(2, body)


class TestSplitByNode:
    def test_node_and_leader_communicators(self):
        def body(comm):
            node_comm, leader_comm = comm.split_by_node()
            members = node_comm.allgather(comm.rank)
            leaders = (
                leader_comm.allgather(comm.rank) if leader_comm else None
            )
            return members, leaders

        res = run_spmd(8, body, ranks_per_node=4)
        for rank in range(8):
            members, leaders = res.values[rank]
            assert members == ([0, 1, 2, 3] if rank < 4 else [4, 5, 6, 7])
            if rank in (0, 4):
                assert leaders == [0, 4]
            else:
                assert leaders is None

    def test_flat_world_every_rank_leads_itself(self):
        def body(comm):
            node_comm, leader_comm = comm.split_by_node()
            return node_comm.size, leader_comm.allgather(comm.rank)

        res = run_spmd(3, body)
        for rank in range(3):
            assert res.values[rank] == (1, [0, 1, 2])

    def test_ragged_tail_node(self):
        def body(comm):
            node_comm, _ = comm.split_by_node()
            return node_comm.allgather(comm.rank)

        res = run_spmd(5, body, ranks_per_node=2)
        assert res.values[4] == [4]
        assert res.values[0] == [0, 1]

    def test_node_groups(self):
        def body(comm):
            return comm.node_groups()

        res = run_spmd(5, body, ranks_per_node=2)
        assert res.values[0] == [[0, 1], [2, 3], [4]]


class TestTagSpaceIsolation:
    def test_sibling_splits_do_not_cross_talk(self):
        # Both halves run identically-tagged traffic concurrently; the
        # per-split context must keep the channels apart.
        def body(comm):
            sub = comm.split(comm.rank % 2)
            peer = 1 - sub.rank
            sub.send(("split", comm.rank), dest=peer, tag=7)
            return sub.recv(source=peer, tag=7)

        res = run_spmd(4, body)
        assert res.values[0] == ("split", 2)
        assert res.values[2] == ("split", 0)
        assert res.values[1] == ("split", 3)
        assert res.values[3] == ("split", 1)

    def test_parent_and_child_tags_are_disjoint(self):
        # Same (src, dst, tag) triple on the parent and the child:
        # each message must land on the communicator it was sent on.
        def body(comm):
            sub = comm.split(0)  # same membership as the parent
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
            first = comm.split(0)
            second = comm.split(0)
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
        def body(comm):
            sub = comm.split(comm.rank // 2)
            total = sub.allreduce(comm.rank)
            sub.barrier()
            objs = [np.full(2, comm.rank, dtype=float) for _ in range(sub.size)]
            pieces = sub.alltoall(objs)
            return total, np.stack(pieces)

        res = run_spmd(4, body)
        assert res.values[0][0] == 1
        assert res.values[2][0] == 5
        np.testing.assert_array_equal(
            res.values[3][1], np.array([[2.0, 2.0], [3.0, 3.0]])
        )

    def test_traffic_charged_at_world_ranks(self):
        def body(comm):
            sub = comm.split(comm.rank % 2)
            peer = 1 - sub.rank
            sub.send(np.zeros(4), dest=peer)
            sub.recv(source=peer)

        res = run_spmd(4, body)
        pairs = res.stats.phase("default").bytes_by_pair
        # Split coordination (allgather) plus the payload exchanges all
        # sit on world-rank pairs; local sub-ranks never appear as keys.
        assert (0, 2) in pairs and (2, 0) in pairs
        assert (1, 3) in pairs and (3, 1) in pairs

    def test_shrink_on_subcommunicator_raises(self):
        def body(comm):
            sub = comm.split(0)
            with pytest.raises(NotImplementedError):
                sub.shrink()

        run_spmd(2, body)


class TestSplitUnderAdversity:
    def test_split_deterministic_under_schedule_fuzzing(self):
        from repro.check import ScheduleController

        def body(comm):
            sub = comm.split(comm.rank % 2, key=-comm.rank)
            gathered = sub.allgather(("v", comm.rank))
            buf = np.full((sub.size, 4), comm.rank, dtype=float)
            return gathered, sub.alltoall_matrix(buf)

        baseline = run_spmd(4, body, ranks_per_node=2, alltoall_algorithm="hierarchical")
        for seed in range(5):
            fuzzed = run_spmd(
                4, body, ranks_per_node=2, alltoall_algorithm="hierarchical",
                schedule=ScheduleController(seed=seed),
                timeout=GUARD_S,
            )
            for rank in range(4):
                assert fuzzed.values[rank][0] == baseline.values[rank][0]
                assert np.array_equal(
                    fuzzed.values[rank][1], baseline.values[rank][1]
                )

    def test_kill_inside_subcommunicator_collective_is_structured(self):
        def body(comm):
            sub = comm.split(comm.rank % 2)
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
        # Rank 0 shares sub-communicator {0, 2} with the casualty.
        assert res.values[0] == ("failed", (2,))
        # The sibling {1, 3} is untouched.
        assert res.values[1] == ("ok", None)
        assert res.values[3] == ("ok", None)
