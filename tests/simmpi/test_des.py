"""Composition suite for the discrete-event engine (PR 9).

``run_spmd(..., engine="des")`` must execute unchanged rank programs —
point-to-point, nonblocking requests, shrunk communicators, fault injection,
collective timeouts, shrink/ULFM recovery, tracing — with the same
*semantics* as the thread engine, deterministically, in virtual time.
The bitwise output/traffic identity lives in the ``des`` conformance
group; this file pins the behavioural compositions and the
DES-specific observables (virtual clocks, vessel reuse, determinism).
"""

import time

import numpy as np
import pytest

from repro.simmpi import (
    CollectiveTimeoutError,
    DeadlockError,
    FaultPlan,
    RankFailedError,
    RankFailure,
    run_spmd,
    waitall,
    waitany,
)
from repro.trace import TraceCostModel, TraceRecorder
from tests.simmpi.test_split import _survivors

GUARD_S = 8.0


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_spmd(2, lambda comm: None, engine="fibers")

    def test_thread_engine_has_no_virtual_clock(self):
        res = run_spmd(2, lambda comm: comm.barrier())
        assert res.virtual_time_s is None

    def test_des_engine_reports_virtual_makespan(self):
        def body(comm):
            comm.barrier()
            if comm.rank == 0:
                comm.send(np.arange(64.0), 1)
            elif comm.rank == 1:
                comm.recv(0)

        res = run_spmd(2, body, engine="des")
        assert res.virtual_time_s is not None and res.virtual_time_s > 0.0

    def test_wall_time_decouples_from_virtual_time(self):
        """A second of modelled link time costs no wall-clock second."""

        def body(comm):
            if comm.rank == 0:
                comm.send(np.arange(1024.0), 1)
            else:
                comm.recv(0)

        t0 = time.perf_counter()
        res = run_spmd(
            2, body, engine="des", cost_model=TraceCostModel(latency_s=0.5)
        )
        assert time.perf_counter() - t0 < 2.0
        assert res.virtual_time_s >= 0.5


class TestDeterminism:
    def test_repeat_runs_identical(self):
        def body(comm):
            rng = np.random.default_rng(comm.rank)
            objs = [rng.standard_normal(8) for _ in range(comm.size)]
            pieces = comm.alltoall(objs)
            return np.concatenate(pieces)

        r1 = run_spmd(8, body, ranks_per_node=3, engine="des")
        r2 = run_spmd(8, body, ranks_per_node=3, engine="des")
        for a, b in zip(r1.values, r2.values):
            assert a.tobytes() == b.tobytes()
        assert r1.stats.as_dict() == r2.stats.as_dict()
        assert r1.virtual_time_s == r2.virtual_time_s

    def test_start_order_permutation_does_not_change_results(self):
        from repro.check import ScheduleController

        def body(comm):
            return comm.allgather(comm.rank * 2)

        ref = run_spmd(6, body, engine="des")
        for seed in range(3):
            res = run_spmd(
                6, body, engine="des",
                schedule=ScheduleController(seed=seed, p_hold=0.0, p_jitter=0.0),
            )
            assert res.values == ref.values


class TestNonblockingUnderDes:
    def test_isend_irecv_waitall_ring(self):
        def body(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            s = comm.isend(np.full(16, comm.rank, dtype=float), right, tag=3)
            r = comm.irecv(left, tag=3)
            waitall([s, r], timeout=GUARD_S)
            return float(r.wait()[0])

        res = run_spmd(6, body, engine="des")
        assert res.values == [(r - 1) % 6 for r in range(6)]


class TestSplitsUnderDes:
    def test_split_and_subcomm_exchange(self):
        def body(comm):
            return _survivors(comm).allgather(comm.rank)

        res = run_spmd(
            6, body, engine="des", resilient=True,
            faults=FaultPlan().kill(1, phase="doom"), timeout=GUARD_S,
        )
        for rank in (0, 2, 3, 4, 5):
            assert res.values[rank] == [0, 2, 3, 4, 5]

    @pytest.mark.parametrize("engine", ["thread", "des"])
    def test_waitany_on_subcomm_ialltoall(self, engine):
        """A derived communicator's request waits run the WORLD rank's
        progress engine and park the world rank's fiber: with world rank
        1 dead, local rank 1 of the shrunk communicator is world rank 2,
        not world rank 1.  The exchange is an all-to-all of
        sub-communicator ``isend``/``irecv`` requests, drained by
        ``waitany``."""

        def body(comm):
            sub = _survivors(comm)
            peers = [d for d in range(sub.size) if d != sub.rank]
            sends = [
                sub.isend(np.full(3, 10.0 * comm.rank + d), d, tag=5) for d in peers
            ]
            recvs = [sub.irecv(src, tag=5) for src in peers]
            got = {sub.rank: 10.0 * comm.rank + sub.rank}
            while True:
                i, block = waitany(recvs, timeout=GUARD_S)
                if i < 0:
                    break
                got[peers[i]] = block[0]
            waitall(sends, timeout=GUARD_S)
            return [int(got[d]) for d in range(sub.size)]

        res = run_spmd(
            6, body, engine=engine, resilient=True,
            faults=FaultPlan().kill(1, phase="doom"), timeout=GUARD_S,
        )
        # Members 0, 2, 3, 4, 5: world rank w sends 10 * w + (local dest).
        assert res.values[0] == [0, 20, 30, 40, 50]
        assert res.values[3] == [2, 22, 32, 42, 52]


class TestFaultInjectionUnderDes:
    def test_kill_surfaces_rank_failed_on_peers(self):
        def body(comm):
            with comm.phase("doom"):
                pass
            try:
                comm.barrier()
            except RankFailedError as exc:
                return exc.ranks
            return None

        res = run_spmd(
            4, body, resilient=True, engine="des",
            faults=FaultPlan().kill(2, phase="doom"), timeout=GUARD_S,
        )
        assert dict(res.failures).keys() == {2}
        for rank in (0, 1, 3):
            assert res.values[rank] == (2,)

    def test_kill_surfaces_on_subcomm_peers(self):
        """A death is visible to the victim's sub-communicator peers as a
        structured RankFailedError, not a hang."""

        def body(comm):
            sub = comm.shrink()
            sub.barrier()  # every rank shrinks before rank 2 dies
            with comm.phase("doom"):
                pass
            try:
                # rank 2 dies; its sub-comm peers must see the structured
                # failure on the sub-comm collective.
                got = sub.allgather(comm.rank)
            except RankFailedError as exc:
                return ("failed", exc.ranks)
            return ("ok", got)

        res = run_spmd(
            6, body, resilient=True, engine="des",
            faults=FaultPlan().kill(2, phase="doom"), timeout=GUARD_S,
        )
        assert dict(res.failures).keys() == {2}
        for rank in (0, 1, 3, 4, 5):
            kind, ranks = res.values[rank]
            assert kind == "failed" and 2 in ranks

    def test_shrink_and_recover_under_des(self):
        def body(comm):
            with comm.phase("doom"):
                pass
            try:
                comm.barrier()
            except RankFailedError:
                pass
            shrunk = comm.shrink()
            return shrunk.allgather(comm.rank)

        res = run_spmd(
            4, body, resilient=True, engine="des",
            faults=FaultPlan().kill(1, phase="doom"), timeout=GUARD_S,
        )
        for rank in (0, 2, 3):
            assert res.values[rank] == [0, 2, 3]

    def test_wire_faults_with_transport_recover_bitwise(self):
        from repro.simmpi import TransportPolicy

        def body(comm):
            if comm.rank == 0:
                with comm.phase("payload"):
                    comm.send(np.arange(32.0), 1, tag=5)
                return None
            with comm.phase("payload"):
                return comm.recv(0, tag=5, timeout=GUARD_S)

        faults = FaultPlan().drop(phase="payload", src=0, dst=1)
        res = run_spmd(
            2, body, engine="des", faults=faults,
            transport=TransportPolicy(), timeout=GUARD_S,
        )
        np.testing.assert_array_equal(res.values[1], np.arange(32.0))
        assert res.stats.total_retransmits >= 1


class TestCollectiveTimeoutsUnderDes:
    def test_recv_expiry_is_deterministic_deadlock(self):
        """The virtual clock advances to the deadline; no wall wait."""

        def body(comm):
            if comm.rank == 0:
                comm.recv(1, tag=7, timeout=0.25)
            return "survived"

        t0 = time.perf_counter()
        res = run_spmd(2, body, resilient=True, engine="des", timeout=GUARD_S)
        assert time.perf_counter() - t0 < GUARD_S
        err = dict(res.failures)[0]
        assert isinstance(err, DeadlockError)
        assert res.values[1] == "survived"
        # Expiry happened *in virtual time*: the makespan includes it.
        assert res.virtual_time_s >= 0.25

    def test_barrier_expiry_is_collective_timeout_like_threads(self):
        def body(comm):
            if comm.rank == 0:
                comm.barrier(timeout=0.2)
            else:
                # Alive but late: parked on a recv that expires after the
                # barrier budget (0.6 virtual/wall seconds vs 0.2), so the
                # barrier never completes and nobody is dead when it expires.
                try:
                    comm.recv(0, tag=9, timeout=0.6)
                except (DeadlockError, RankFailedError):
                    pass
                return "survived"

        failures = {}
        for engine in ("thread", "des"):
            res = run_spmd(
                2, body, resilient=True, engine=engine, timeout=GUARD_S
            )
            failures[engine] = type(dict(res.failures)[0])
            assert res.values[1] == "survived"
        # Same structured failure class on both engines.
        assert failures["des"] is failures["thread"] is CollectiveTimeoutError

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

        res = run_spmd(
            2, body, resilient=True, engine="des",
            faults=FaultPlan().kill(1, phase="doom"), timeout=GUARD_S,
        )
        assert res.values[0] == (1,)

    def test_missing_send_is_deadlock_without_wall_wait(self):
        def prog(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=7)

        t0 = time.perf_counter()
        with pytest.raises(RankFailure) as info:
            run_spmd(2, prog, engine="des", timeout=5.0)
        # Five virtual seconds of budget, near-zero wall seconds.
        assert time.perf_counter() - t0 < 2.0
        assert isinstance(info.value.original, DeadlockError)
        assert "tag=7" in str(info.value.original)


class TestDrainWaitsForArrival:
    """A posted irecv completes when its message *arrives* on the
    receiver's virtual clock, not when it is physically queued."""

    def test_wait_on_early_message_ignores_queued_late_pieces(self):
        cost = TraceCostModel()
        early = np.zeros(8)

        def body(comm):
            if comm.rank == 1:
                comm.send(early, 0, tag=0)  # arrives after ~2.6 us
            elif comm.rank == 2:
                comm.trace_compute("slow", 1e9)  # ~30 ms of virtual compute
                waitall([comm.isend(np.zeros(4096), 0, tag=k) for k in range(4)])
            elif comm.rank == 0:
                first = comm.irecv(1, tag=0)
                late = [comm.irecv(2, tag=k) for k in range(4)]
                first.wait()  # rank 2's pieces are already queued by now
                at = comm.world.clock()
                waitall(late)
                return at, comm.world.clock()
            return None

        res = run_spmd(3, body, engine="des")
        at, done = res.values[0]
        arrival = (
            cost.post_overhead_s + cost.wire_time(early.nbytes)
            + cost.latency_s + cost.delivery_s
        )
        assert at == pytest.approx(arrival, rel=1e-12)
        assert done > 1e-2  # the late pieces really were late

    def test_overlap_timeline_makespan_is_virtual_time(self):
        from repro.core import SoiPlan
        from repro.parallel import soi_fft_distributed

        plan, nranks = SoiPlan(n=4096, p=4), 4
        x = np.random.default_rng(3).standard_normal(plan.n) + 0j
        blocks = x.reshape(nranks, -1)
        rec = TraceRecorder()
        res = run_spmd(
            nranks,
            lambda comm: soi_fft_distributed(
                comm, blocks[comm.rank], plan, overlap=True
            ),
            engine="des",
            trace=rec,
        )
        assert res.virtual_time_s > 0.0
        assert rec.timeline().makespan == res.virtual_time_s


class TestTraceCaptureUnderDes:
    def test_trace_records_compute_and_wire_spans(self):
        rec = TraceRecorder()

        def body(comm):
            if comm.rank == 0:
                comm.send(np.arange(128.0), 1, tag=1)
            else:
                comm.recv(0, tag=1)
            comm.barrier()

        run_spmd(2, body, trace=rec, engine="des")
        assert rec.nevents > 0
        tl = rec.timeline()
        assert tl.makespan > 0.0
        kinds = {s.kind for s in tl.spans}
        assert "send" in kinds or "xfer" in kinds or len(kinds) >= 2


class TestScaleSmoke:
    def test_many_ranks_execute_quickly(self):
        """Hundreds of ranks on a handful of vessels: the point of DES."""

        def body(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank, right, tag=1)
            got = comm.recv(left, tag=1, timeout=GUARD_S)
            return got

        t0 = time.perf_counter()
        res = run_spmd(256, body, ranks_per_node=16, engine="des")
        assert time.perf_counter() - t0 < 30.0
        assert res.values == [(r - 1) % 256 for r in range(256)]
