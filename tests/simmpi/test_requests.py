"""Tests for nonblocking request semantics: isend/irecv, waitall/waitany,
FIFO fulfilment, idempotent claims, and composition with the schedule
fuzzer, a slow DES wire, and fault injection over the reliable transport.
"""

import numpy as np
import pytest

from repro.check import ScheduleController
from repro.cluster import FatTree
from repro.simmpi import (
    FaultPlan,
    TransportPolicy,
    run_spmd,
    waitall,
    waitany,
)
from repro.trace import TraceCostModel

# Impatient policy: tests exercise retransmission, not wall-clock patience.
QUICK = TransportPolicy(retry_timeout=0.02, max_retries=6)

#: A slow virtual wire for engine="des": 1 MB/s, 0.1 ms per message.
SLOW_WIRE = TraceCostModel(
    fabric=FatTree(link_gbit=0.008, alltoall_efficiency=1.0), latency_s=1e-4
)


class TestRequestBasics:
    def test_isend_irecv_roundtrip(self):
        def prog(comm):
            if comm.rank == 0:
                comm.isend(np.arange(8), dest=1).wait()
                return None
            return comm.irecv(source=0).wait()

        np.testing.assert_array_equal(run_spmd(2, prog)[1], np.arange(8))

    def test_wait_is_idempotent_and_test_caches(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend("x", dest=1)
                first, second = req.wait(), req.wait()
                done, val = req.test()
                return (first, second, done, val)
            req = comm.irecv(source=0)
            a = req.wait()
            b = req.wait()  # double wait: cached value, no re-receive
            done, c = req.test()
            return (a, b, done, c)

        res = run_spmd(2, prog)
        assert res[1] == ("x", "x", True, "x")
        assert res[0] == (None, None, True, None)

    def test_completed_flips_only_at_claim(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1)  # hold the send until the recv is posted
                comm.send("payload", dest=1)
                return None
            req = comm.irecv(source=0)
            posted = req.completed  # nothing sent yet
            comm.send("go", dest=0)
            req.wait()
            return (posted, req.completed)

        assert run_spmd(2, prog)[1] == (False, True)

    def test_out_of_post_order_wait_respects_channel_fifo(self):
        """Waiting on the LAST posted request first still yields the
        third message: fulfilment is per-channel FIFO (non-overtaking)."""

        def prog(comm):
            if comm.rank == 0:
                for i in range(3):
                    comm.send(i, dest=1)
                return None
            reqs = [comm.irecv(source=0) for _ in range(3)]
            last = reqs[2].wait()
            return (last, reqs[0].wait(), reqs[1].wait())

        assert run_spmd(2, prog)[1] == (2, 0, 1)

    def test_waitall_returns_in_request_order(self):
        def prog(comm):
            if comm.rank == 0:
                sends = [comm.isend(i * 10, dest=1, tag=i) for i in range(4)]
                waitall(sends)
                return None
            reqs = [comm.irecv(source=0, tag=i) for i in reversed(range(4))]
            return waitall(reqs)

        assert run_spmd(2, prog)[1] == [30, 20, 10, 0]

    def test_send_buffer_reuse_after_wait(self):
        """SendRequest completion means the buffer is consumed: mutating
        it afterwards must not corrupt the delivered payload."""

        def prog(comm):
            if comm.rank == 0:
                buf = np.arange(4, dtype=np.float64)
                req = comm.isend(buf, dest=1)
                comm.recv(source=1)  # receiver confirms it popped the message
                req.wait()
                buf[:] = -1.0
                comm.send("done", dest=1)
                return None
            got = comm.irecv(source=0).wait().copy()
            comm.send("popped", dest=0)
            comm.recv(source=0)
            return got

        np.testing.assert_array_equal(
            run_spmd(2, prog)[1], np.arange(4, dtype=np.float64)
        )


class TestWaitany:
    def test_waitany_returns_arrival_order(self):
        """Token-gated: rank 0 cannot have sent when the first waitany
        runs, so the first completion is deterministically rank 2's."""

        def prog(comm):
            if comm.rank == 1:
                reqs = [comm.irecv(source=0), comm.irecv(source=2)]
                i, first = waitany(reqs)
                comm.send("go", dest=0)
                j, second = waitany(reqs)
                exhausted = waitany(reqs)
                return (i, first, j, second, exhausted)
            if comm.rank == 2:
                comm.send("from2", dest=1)
                return None
            comm.recv(source=1)
            comm.send("from0", dest=1)
            return None

        i, first, j, second, exhausted = run_spmd(3, prog)[1]
        assert (i, first) == (1, "from2")
        assert (j, second) == (0, "from0")
        assert exhausted == (-1, None)  # every request already claimed

    def test_waitany_skips_claimed_requests(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            ra = comm.irecv(source=0, tag=1)
            rb = comm.irecv(source=0, tag=2)
            ra.wait()
            i, val = waitany([ra, rb])
            return (i, val)

        assert run_spmd(2, prog)[1] == (1, "b")


class TestScheduleAndFaultComposition:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_channel_fifo_under_fuzzed_schedules(self, seed):
        def prog(comm):
            if comm.rank == 0:
                waitall([comm.isend(i, dest=1) for i in range(10)])
                return None
            return waitall([comm.irecv(source=0) for _ in range(10)])

        res = run_spmd(
            2, prog, schedule=ScheduleController(seed=f"req-fifo/{seed}")
        )
        assert res[1] == list(range(10))

    def test_retransmit_under_drop_fault(self):
        """A dropped isend is recovered by the transport; the receive
        request's wait drives the retransmission machinery."""

        def prog(comm):
            if comm.rank == 0:
                comm.isend(np.arange(4, dtype=np.float64), dest=1).wait()
                return None
            return comm.irecv(source=0).wait()

        res = run_spmd(
            2, prog, faults=FaultPlan().drop(src=0, dst=1), transport=QUICK
        )
        np.testing.assert_array_equal(res[1], np.arange(4, dtype=np.float64))
        assert res.stats.total_retransmits == 1

    def test_transport_out_of_post_order_wait(self):
        def prog(comm):
            if comm.rank == 0:
                waitall([comm.isend(i, dest=1) for i in range(3)])
                return None
            reqs = [comm.irecv(source=0) for _ in range(3)]
            return (reqs[2].wait(), reqs[0].wait(), reqs[1].wait())

        res = run_spmd(2, prog, transport=QUICK)
        assert res[1] == (2, 0, 1)


class TestLinkModel:
    def test_link_preserves_channel_fifo(self):
        def prog(comm):
            if comm.rank == 0:
                waitall([comm.isend(i, dest=1) for i in range(8)])
                return None
            return waitall([comm.irecv(source=0) for _ in range(8)])

        res = run_spmd(2, prog, engine="des", cost_model=SLOW_WIRE)
        assert res[1] == list(range(8))
        # Eight 16-byte sends serialised through a 1 MB/s NIC, plus latency.
        assert res.virtual_time_s >= 8 * 16 / 1e6 + 1e-4

    def test_link_blocking_collectives_unchanged(self):
        def prog(comm):
            objs = [np.arange(3, dtype=np.float64) + dst for dst in range(comm.size)]
            got = comm.alltoall(objs)
            comm.barrier()
            return [g.sum() for g in got]

        plain = run_spmd(3, prog)
        linked = run_spmd(3, prog, engine="des", cost_model=SLOW_WIRE)
        assert plain.values == linked.values
        assert plain.stats.as_dict() == linked.stats.as_dict()


class TestDepthAccounting:
    def test_depth_histogram_records_posts_and_claims(self):
        def prog(comm):
            if comm.rank == 0:
                waitall([comm.isend(i, dest=1) for i in range(3)])
                return None
            waitall([comm.irecv(source=0) for _ in range(3)])
            return None

        stats = run_spmd(2, prog).stats
        ph = stats.phase("default")
        assert ph.max_outstanding == 3
        # 2 ranks x (3 posts + 3 claims) = 12 depth transitions.
        assert sum(ph.time_at_depth.values()) == 12

    def test_depth_histogram_schedule_invariant(self):
        """Claims are recorded at program observation points, so the
        depth profile must not depend on the fuzzed arrival order."""

        def prog(comm):
            nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            sends = [comm.isend(i, dest=nxt) for i in range(4)]
            recvs = [comm.irecv(source=prv) for _ in range(4)]
            got = waitall(recvs)
            waitall(sends)
            return got

        ref = run_spmd(3, prog)
        ref_phase = ref.stats.phase("default").as_dict()
        for seed in range(3):
            res = run_spmd(
                3, prog, schedule=ScheduleController(seed=f"depth/{seed}")
            )
            assert res.values == ref.values
            assert res.stats.phase("default").as_dict() == ref_phase
