"""Tests for the simulated communicator's point-to-point and collectives."""

import numpy as np
import pytest

from repro.simmpi import Communicator, DeadlockError, World, run_spmd


class TestWorldBasics:
    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            World(0)

    def test_rank_range_validation(self):
        world = World(2)
        with pytest.raises(ValueError):
            Communicator(world, 5)

    def test_comm_properties(self):
        world = World(3)
        comm = Communicator(world, 1)
        assert comm.rank == 1
        assert comm.size == 3


class TestPointToPoint:
    def test_send_recv_pair(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"v": 42}, dest=1)
                return None
            return comm.recv(source=0)

        res = run_spmd(2, prog)
        assert res[1] == {"v": 42}

    def test_numpy_payloads(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(5), dest=1)
                return None
            return comm.recv(source=0)

        res = run_spmd(2, prog)
        np.testing.assert_array_equal(res[1], np.arange(5))

    def test_tags_keep_channels_separate(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            # receive in reverse tag order: must not cross.
            b = comm.recv(source=0, tag=2)
            a = comm.recv(source=0, tag=1)
            return (a, b)

        assert run_spmd(2, prog)[1] == ("a", "b")

    def test_message_ordering_fifo_per_channel(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(10)]

        assert run_spmd(2, prog)[1] == list(range(10))

    def test_sendrecv_ring(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, dest=right, source=left)

        res = run_spmd(4, prog)
        assert res.values == [3, 0, 1, 2]

    def test_self_send(self):
        def prog(comm):
            comm.send("me", dest=comm.rank)
            return comm.recv(source=comm.rank)

        assert run_spmd(1, prog)[0] == "me"

    def test_bad_peer_rejected(self):
        def prog(comm):
            comm.send(1, dest=99)

        with pytest.raises(Exception, match="out of range"):
            run_spmd(2, prog, timeout=5)

    def test_recv_timeout_is_deadlock_error(self):
        def prog(comm):
            if comm.rank == 1:
                comm.recv(source=0)  # nobody sends

        with pytest.raises(Exception) as exc_info:
            run_spmd(2, prog, timeout=0.3)
        assert isinstance(exc_info.value.original, DeadlockError)


class TestCollectives:
    def test_barrier_all_ranks(self):
        def prog(comm):
            comm.barrier()
            return comm.rank

        assert run_spmd(3, prog).values == [0, 1, 2]

    def test_bcast_from_nonzero_root(self):
        def prog(comm):
            data = "hello" if comm.rank == 2 else None
            return comm.bcast(data, root=2)

        assert run_spmd(4, prog).values == ["hello"] * 4

    def test_gather(self):
        def prog(comm):
            return comm.gather(comm.rank * 10, root=1)

        res = run_spmd(3, prog)
        assert res[0] is None
        assert res[1] == [0, 10, 20]
        assert res[2] is None

    def test_allgather(self):
        def prog(comm):
            return comm.allgather(comm.rank**2)

        assert run_spmd(4, prog).values == [[0, 1, 4, 9]] * 4

    def test_scatter(self):
        def prog(comm):
            objs = [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        assert run_spmd(3, prog).values == ["item0", "item1", "item2"]

    def test_scatter_wrong_count(self):
        def prog(comm):
            objs = [1] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        with pytest.raises(Exception, match="exactly"):
            run_spmd(2, prog, timeout=5)

    def test_alltoall_permutes_correctly(self):
        def prog(comm):
            send = [comm.rank * 100 + d for d in range(comm.size)]
            return comm.alltoall(send)

        res = run_spmd(4, prog)
        for r in range(4):
            assert res[r] == [src * 100 + r for src in range(4)]

    def test_alltoall_wrong_count(self):
        def prog(comm):
            return comm.alltoall([1, 2, 3])  # size is 2

        with pytest.raises(Exception, match="exactly"):
            run_spmd(2, prog, timeout=5)

    def test_reduce_default_sum(self):
        def prog(comm):
            return comm.reduce(np.full(3, comm.rank + 1.0), root=0)

        res = run_spmd(3, prog)
        np.testing.assert_array_equal(res[0], np.full(3, 6.0))
        assert res[1] is None

    def test_reduce_custom_op(self):
        def prog(comm):
            return comm.reduce(comm.rank + 1, op=lambda a, b: a * b, root=0)

        assert run_spmd(4, prog)[0] == 24

    def test_allreduce(self):
        def prog(comm):
            return comm.allreduce(comm.rank)

        assert run_spmd(5, prog).values == [10] * 5


class TestPayloadAccounting:
    @staticmethod
    def _bytes_sent(payload):
        def prog(comm):
            if comm.rank == 0:
                comm.send(payload, dest=1)
            else:
                comm.recv(source=0)

        res = run_spmd(2, prog)
        return res.stats.phase("default").bytes_by_pair[(0, 1)]

    def test_numpy_scalar_counted_by_nbytes(self):
        assert self._bytes_sent(np.complex128(1 + 2j)) == 16
        assert self._bytes_sent(np.float64(1.5)) == 8

    def test_list_of_numpy_scalars(self):
        assert self._bytes_sent([np.float64(1.0), np.float64(2.0)]) == 16

    def test_array_counted_by_nbytes(self):
        assert self._bytes_sent(np.zeros(10, dtype=np.complex128)) == 160
