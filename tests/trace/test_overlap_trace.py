"""Tests for nonblocking sends on the DES clock, claim-time receive
recording, and stall attribution on the critical path."""

import numpy as np
import pytest

from repro.simmpi import run_spmd
from repro.trace import (
    TraceCostModel,
    TraceRecorder,
    critical_path,
    rollup,
)

KB = 1024


def _wire_heavy() -> TraceCostModel:
    """A cost model where communication dominates compute."""
    from repro.cluster.topology import FatTree

    return TraceCostModel(
        fabric=FatTree(link_gbit=0.01, taper=1.0, alltoall_efficiency=1.0),
        latency_s=1e-4,
    )


def _des(nranks, prog, cost=None):
    """Run *prog* traced on the DES engine; returns the timeline."""
    rec = TraceRecorder()
    run_spmd(nranks, prog, engine="des", cost_model=cost, trace=rec)
    return rec.timeline()


def _kb(k):
    return np.zeros(k * KB, dtype=np.uint8)


def _two_isends(comm):
    """Rank 0 posts two 64 KB isends to rank 1, which receives both."""
    if comm.rank == 0:
        with comm.phase("ph"):
            reqs = [comm.isend(_kb(64), dest=1) for _ in range(2)]
        for r in reqs:
            r.wait()
    else:
        with comm.phase("ph"):
            comm.recv(source=0)
            comm.recv(source=0)


class TestIsendReplay:
    def test_post_costs_only_post_overhead(self):
        cost = _wire_heavy()

        def prog(comm):
            if comm.rank == 0:
                comm.isend(_kb(64), dest=1).wait()
            else:
                comm.recv(source=0)

        (post,) = [s for s in _des(2, prog, cost).spans if s.kind == "isend"]
        assert post.duration == pytest.approx(cost.post_overhead_s)
        assert post.duration < cost.wire_time(64 * KB)

    def test_nic_serialises_back_to_back_isends(self):
        """Two isends on one NIC: the second message cannot start its
        wire time before the first finishes, so the receiver observes
        the second arrival a full wire time after the first."""
        cost = _wire_heavy()
        tl = _des(2, _two_isends, cost)
        r1, r2 = [s for s in tl.spans if s.kind == "recv"]
        wire = cost.wire_time(64 * KB)
        assert r2.t0 - r1.t0 >= wire * 0.999

    def test_blocking_send_occupies_the_nic(self):
        """An isend posted after a blocking send queues behind its wire
        time rather than departing immediately."""
        cost = _wire_heavy()

        def prog(comm):
            if comm.rank == 0:
                comm.send(_kb(64), dest=1, tag=0)
                comm.isend(_kb(64), dest=1, tag=1).wait()
            else:
                comm.recv(source=0, tag=1)
                comm.recv(source=0, tag=0)

        recv = [s for s in _des(2, prog, cost).spans if s.kind == "recv"][0]
        # Arrival >= two wire times + latency (serial NIC), not one.
        assert recv.t0 >= 2 * cost.wire_time(64 * KB) + cost.latency_s - 1e-12

    def test_isend_matches_recv_ordinals_with_sends(self):
        """isend and send share the per-channel ordinal family, so a
        mixed stream still pairs the receiver's k-th recv with the
        channel's k-th logical send."""

        def prog(comm):
            if comm.rank == 0:
                comm.send(_kb(1), dest=1)
                comm.isend(_kb(2), dest=1).wait()
            else:
                comm.recv(source=0)
                comm.recv(source=0)

        tl = _des(2, prog)
        by_uid = tl.by_uid()
        recvs = [s for s in tl.spans if s.kind == "recv"]
        assert [by_uid[s.cause].kind for s in recvs] == ["send", "isend"]
        assert [by_uid[s.cause].nbytes for s in recvs] == [KB, 2 * KB]


class TestClaimTimeRecording:
    def test_recv_recorded_at_wait_not_arrival(self):
        """The payload provably arrives before the receiver's compute
        (a later token is already in hand), yet the recv lands on the
        timeline at the wait — the program's true blocking point."""

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(512), dest=1, tag=0)  # payload
                comm.send("token", dest=1, tag=1)  # proves arrival
                return None
            req = comm.irecv(source=0, tag=0)
            comm.recv(source=0, tag=1)  # token: payload is in the channel
            comm.trace_compute("busy", 1e8)
            req.wait()
            return None

        rec = TraceRecorder()
        run_spmd(2, prog, trace=rec)
        tl = rec.timeline()
        busy = [s for s in tl.spans if s.kind == "compute" and s.rank == 1][0]
        # tag isn't on Span; identify the payload recv as the LAST recv.
        last_recv = max(
            (s for s in tl.spans if s.kind == "recv" and s.rank == 1),
            key=lambda s: s.t0,
        )
        assert last_recv.t0 >= busy.t1 - 1e-12


def _exchange_after(work_flops, nbytes, nonblocking=False):
    """Rank 0 computes *work_flops* then sends *nbytes* to rank 1 (as an
    isend whose compute follows the post when *nonblocking*)."""

    def prog(comm):
        if comm.rank == 0:
            if not nonblocking:
                comm.trace_compute("warmup", work_flops)
            with comm.phase("exchange"):
                req = comm.isend(_kb(nbytes // KB), dest=1)
            if nonblocking:
                comm.trace_compute("overlap", work_flops)
            req.wait()
        else:
            with comm.phase("exchange"):
                comm.recv(source=0)

    return prog


class TestStallAttribution:
    def test_bridged_wait_charged_to_waiting_phase(self):
        """critical_path bridges a caused wait out of the span path; the
        stalled seconds must still be attributed to the wait's phase."""
        cp = critical_path(_des(2, _exchange_after(1e9, KB)))
        stall = cp.wait_by_phase_s()
        assert stall.get("exchange", 0.0) > 0.0
        assert sum(cp.bridged_wait_s.values()) > 0.0

    def test_isend_post_not_counted_as_stall(self):
        """Posting returns immediately: a pipelined exchange that never
        blocks contributes (almost) nothing to the stall attribution."""
        cost = _wire_heavy()
        tl = _des(2, _exchange_after(1e12, 1024 * KB, nonblocking=True), cost)
        stall = critical_path(tl).wait_by_phase_s()
        # The compute fully hides the wire time, so the exchange phase
        # contributes (almost) nothing to the critical chain.
        assert stall.get("exchange", 0.0) < 0.1 * cost.wire_time(1024 * KB)

    @pytest.fixture(scope="class")
    def soi_des(self):
        """Blocking and pipelined distributed SOI on the DES, under a
        5 MB/s injection NIC plus 300 us latency. Maps ``overlap`` to
        (makespan, all-to-all stall on the critical path, deepest queue
        of outstanding all-to-all requests on any rank)."""
        from repro.bench.workloads import random_complex
        from repro.cluster.topology import FatTree
        from repro.core import SoiPlan
        from repro.parallel import soi_fft_distributed

        cost = TraceCostModel(
            fabric=FatTree(link_gbit=0.04, taper=1.0, alltoall_efficiency=1.0),
            latency_s=300e-6,
        )
        plan, nranks = SoiPlan(n=4096, p=4), 4
        blocks = random_complex(plan.n, seed=plan.n % 9973).reshape(nranks, -1)
        runs = {}
        for overlap in (False, True):
            rec = TraceRecorder()
            res = run_spmd(
                nranks,
                lambda comm: soi_fft_distributed(
                    comm, blocks[comm.rank], plan,
                    overlap=overlap, overlap_groups=2,
                ),
                engine="des", cost_model=cost, trace=rec,
            )
            tl = rec.timeline()
            runs[overlap] = (
                tl.makespan,
                critical_path(tl).wait_by_phase_s().get("alltoall", 0.0),
                res.stats.phase("alltoall").max_outstanding,
            )
        return runs

    def test_pipelined_soi_stalls_less_than_blocking(self, soi_des):
        """The pipelined SOI's critical path spends strictly less time
        stalled in the all-to-all than the blocking one."""
        blk_span, blk_stall, _ = soi_des[False]
        ovl_span, ovl_stall, _ = soi_des[True]
        assert blk_span > 0 and ovl_span > 0
        assert ovl_stall < blk_stall

    def test_pipelined_soi_replay_shows_inflight_depth(self, soi_des):
        """The pipelined path really has all-to-all messages in flight
        together."""
        assert soi_des[True][2] > 1

    def test_rollup_exports_wait_by_phase(self):
        roll = rollup(_des(2, _exchange_after(1e8, KB)))
        assert "wait_by_phase_s" in roll["critical_path"]
        assert isinstance(roll["critical_path"]["wait_by_phase_s"], dict)
