"""Tests for the SPMD launcher: results, failure semantics, isolation."""

import threading

import numpy as np
import pytest

from repro.simmpi import FaultPlan, InjectedFault, RankFailure, run_spmd


class TestResults:
    def test_values_ordered_by_rank(self):
        res = run_spmd(4, lambda comm: comm.rank * 2)
        assert res.values == [0, 2, 4, 6]

    def test_result_indexing_and_iteration(self):
        res = run_spmd(3, lambda comm: comm.rank)
        assert res[2] == 2
        assert list(res) == [0, 1, 2]

    def test_extra_args_forwarded(self):
        res = run_spmd(2, lambda comm, a, b=0: (comm.rank, a, b), 7, b=9)
        assert res.values == [(0, 7, 9), (1, 7, 9)]

    def test_single_rank_world(self):
        assert run_spmd(1, lambda comm: comm.allreduce(5)).values == [5]

    def test_threads_really_run_concurrently(self):
        """Ranks must not be serialised: a rendezvous between two ranks
        can only complete if both are alive at once."""
        barrier = threading.Barrier(2, timeout=10)

        def prog(comm):
            barrier.wait()
            return True

        assert run_spmd(2, prog).values == [True, True]


class TestWorldSizeBoundary:
    """``nranks`` is checked where it enters, with a message that names it."""

    @pytest.mark.parametrize("bad", [2.0, True, "2"], ids=["float", "bool", "str"])
    def test_non_integer_sizes_rejected(self, bad):
        with pytest.raises(TypeError, match="nranks"):
            run_spmd(bad, lambda comm: comm.size)

    @pytest.mark.parametrize("size", [2, np.int64(2)], ids=["int", "np.int64"])
    def test_integer_sizes_accepted(self, size):
        res = run_spmd(size, lambda comm: comm.size)
        assert res.values == [2, 2]
        assert all(type(v) is int for v in res.values)


class TestOptionBoundary:
    """``timeout`` and ``ranks_per_node`` are checked where they enter."""

    @pytest.mark.parametrize("bad", [True, "5", None], ids=["bool", "str", "None"])
    def test_non_numeric_timeout_rejected(self, bad):
        with pytest.raises(TypeError, match="timeout"):
            run_spmd(2, lambda comm: comm.size, timeout=bad)

    @pytest.mark.parametrize(
        "bad", [0, -1, 0.0, float("inf"), float("nan")],
        ids=["zero", "negative", "zero-float", "inf", "nan"],
    )
    def test_nonpositive_or_infinite_timeout_rejected(self, bad):
        with pytest.raises(ValueError, match="timeout"):
            run_spmd(2, lambda comm: comm.size, timeout=bad)

    @pytest.mark.parametrize(
        "good", [5, 0.5, np.int64(5), np.float64(0.5)],
        ids=["int", "float", "np.int64", "np.float64"],
    )
    def test_numeric_timeouts_accepted(self, good):
        assert run_spmd(2, lambda comm: comm.size, timeout=good).values == [2, 2]

    @pytest.mark.parametrize(
        "bad", [True, 1.5, 2.0, "2"], ids=["bool", "float", "float-int", "str"]
    )
    def test_non_integer_ranks_per_node_rejected(self, bad):
        with pytest.raises(TypeError, match="ranks_per_node"):
            run_spmd(4, lambda comm: comm.size, ranks_per_node=bad)

    @pytest.mark.parametrize("bad", [0, -2], ids=["zero", "negative"])
    def test_nonpositive_ranks_per_node_rejected(self, bad):
        with pytest.raises(ValueError, match="ranks_per_node"):
            run_spmd(4, lambda comm: comm.size, ranks_per_node=bad)

    @pytest.mark.parametrize("engine", ["thread", "des"])
    def test_numpy_ranks_per_node_accepted(self, engine):
        res = run_spmd(
            4, lambda comm: comm.world.nodes.node_of(comm.rank),
            ranks_per_node=np.int64(2), engine=engine,
        )
        assert res.values == [0, 0, 1, 1]
        assert all(type(v) is int for v in res.values)


class TestFailurePropagation:
    def test_original_exception_surfaces(self):
        def prog(comm):
            if comm.rank == 2:
                raise KeyError("boom")
            comm.barrier()

        with pytest.raises(RankFailure) as info:
            run_spmd(3, prog, timeout=5)
        assert info.value.rank == 2
        assert isinstance(info.value.original, KeyError)

    def test_blocked_ranks_unwind(self):
        """Ranks stuck in recv must not hang the whole run."""

        def prog(comm):
            if comm.rank == 0:
                raise ValueError("dead")
            comm.recv(source=0)

        with pytest.raises(RankFailure):
            run_spmd(3, prog, timeout=30)  # must return well before timeout

    def test_barrier_unwinds_on_failure(self):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("x")
            comm.barrier()

        with pytest.raises(RankFailure):
            run_spmd(2, prog, timeout=30)

    def test_root_cause_preferred_over_secondary_aborts(self):
        def prog(comm):
            if comm.rank == 1:
                raise ZeroDivisionError("root cause")
            comm.recv(source=1)

        with pytest.raises(RankFailure) as info:
            run_spmd(2, prog, timeout=5)
        assert isinstance(info.value.original, ZeroDivisionError)


class TestFaultInjection:
    def test_payload_corruption_hook(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.ones(4), dest=1)
                return None
            return comm.recv(source=0)

        res = run_spmd(2, prog, faults=FaultPlan().bitflip(src=0, dst=1))
        got = res[1]
        assert got.shape == (4,)
        assert np.count_nonzero(got != 1.0) == 1  # one flipped exponent bit

    def test_raising_hook_aborts_run(self):
        def prog(comm):
            with comm.phase("exchange"):
                if comm.rank == 0:
                    comm.send(1, dest=1)
                else:
                    comm.recv(source=0)

        with pytest.raises(RankFailure) as info:
            run_spmd(2, prog, faults=FaultPlan().kill(0, phase="exchange"), timeout=5)
        assert isinstance(info.value.original, InjectedFault)

    def test_selective_fault_only_affects_target_link(self):
        def prog(comm):  # only uses 1 -> 0
            if comm.rank == 1:
                comm.send("ok", dest=0)
                return None
            return comm.recv(source=1)

        cut = FaultPlan().drop(src=0, dst=1, times=None)
        res = run_spmd(2, prog, faults=cut)
        assert res[0] == "ok"
        assert cut.log == []


class TestStatsIsolation:
    def test_each_run_gets_fresh_stats(self):
        res1 = run_spmd(2, lambda comm: comm.alltoall([1, 2]))
        res2 = run_spmd(2, lambda comm: comm.rank)
        assert res1.stats.alltoall_rounds == 1
        assert res2.stats.alltoall_rounds == 0
