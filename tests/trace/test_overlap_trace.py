"""Tests for nonblocking-send replay, claim-time receive recording,
in-flight depth profiling, and stall attribution on the critical path."""

import numpy as np
import pytest

from repro.simmpi import run_spmd
from repro.trace import (
    TraceCostModel,
    TraceRecorder,
    critical_path,
    inflight_profile,
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


def _pair(send_kind: str, cost: TraceCostModel):
    """Rank 0 sends 64 KB then computes; rank 1 receives. Returns timeline."""
    rec = TraceRecorder()
    getattr(rec, f"record_{send_kind}")("ph", 0, 1, 0, 64 * KB)
    rec.record_compute("ph", 0, "work", 1e8)
    rec.record_recv("ph", 0, 1, 0, 64 * KB)
    return rec.timeline(cost)


class TestIsendReplay:
    def test_post_costs_only_post_overhead(self):
        cost = _wire_heavy()
        tl = _pair("isend", cost)
        (post,) = [s for s in tl.spans if s.kind == "isend"]
        assert post.duration == cost.post_overhead_s
        assert post.duration < cost.wire_time(64 * KB)

    def test_wire_time_overlaps_posters_compute(self):
        """The sender's compute starts at post end under isend, but only
        after the full wire time under a blocking send."""
        cost = _wire_heavy()
        tl_i = _pair("isend", cost)
        tl_b = _pair("send", cost)
        comp_i = [s for s in tl_i.spans if s.kind == "compute"][0]
        comp_b = [s for s in tl_b.spans if s.kind == "compute"][0]
        assert comp_i.t0 < comp_b.t0
        assert tl_i.makespan < tl_b.makespan

    def test_nic_serialises_back_to_back_isends(self):
        """Two isends on one NIC: the second message cannot start its
        wire time before the first finishes, so the receiver observes
        the second arrival a full wire time after the first."""
        cost = _wire_heavy()
        rec = TraceRecorder()
        rec.record_isend("ph", 0, 1, 0, 64 * KB)
        rec.record_isend("ph", 0, 1, 0, 64 * KB)
        rec.record_recv("ph", 0, 1, 0, 64 * KB)
        rec.record_recv("ph", 0, 1, 0, 64 * KB)
        tl = rec.timeline(cost)
        r1, r2 = [s for s in tl.spans if s.kind == "recv"]
        wire = cost.wire_time(64 * KB)
        assert r2.t0 - r1.t0 >= wire * 0.999

    def test_blocking_send_occupies_the_nic(self):
        """An isend posted after a blocking send queues behind its wire
        time rather than departing immediately."""
        cost = _wire_heavy()
        rec = TraceRecorder()
        rec.record_send("ph", 0, 1, 0, 64 * KB)
        rec.record_isend("ph", 0, 1, 1, 64 * KB)
        rec.record_recv("ph", 0, 1, 1, 64 * KB)
        tl = rec.timeline(cost)
        (recv,) = [s for s in tl.spans if s.kind == "recv"]
        # Arrival >= two wire times + latency (serial NIC), not one.
        assert recv.t0 >= 2 * cost.wire_time(64 * KB) + cost.latency_s - 1e-12

    def test_isend_matches_recv_ordinals_with_sends(self):
        """isend and send share the per-channel ordinal family, so a
        mixed stream still pairs the receiver's k-th recv with the
        channel's k-th logical send."""
        rec = TraceRecorder()
        rec.record_send("ph", 0, 1, 0, KB)
        rec.record_isend("ph", 0, 1, 0, 2 * KB)
        rec.record_recv("ph", 0, 1, 0, KB)
        rec.record_recv("ph", 0, 1, 0, 2 * KB)
        tl = rec.timeline()
        by_uid = tl.by_uid()
        recvs = [s for s in tl.spans if s.kind == "recv"]
        kinds = [by_uid[s.cause].kind for s in recvs]
        assert kinds == ["send", "isend"]


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


class TestInflightProfile:
    def test_depth_counts_overlapping_messages(self):
        cost = _wire_heavy()
        rec = TraceRecorder()
        rec.record_isend("ph", 0, 1, 0, 64 * KB)
        rec.record_isend("ph", 0, 1, 0, 64 * KB)
        rec.record_recv("ph", 0, 1, 0, 64 * KB)
        rec.record_recv("ph", 0, 1, 0, 64 * KB)
        prof = inflight_profile(rec.timeline(cost))
        assert prof["ph"]["messages"] == 2
        # Both posted before either is claimed: depth 2 is reached.
        assert prof["ph"]["max_depth"] == 2
        assert set(prof["ph"]["time_at_depth_s"]) <= {"1", "2"}
        assert all(isinstance(k, str) for k in prof["ph"]["time_at_depth_s"])

    def test_back_to_back_blocking_sends_stay_depth_one(self):
        """With zero latency the second send departs exactly when the
        first recv completes: the tie must NOT count as depth 2."""
        cost = TraceCostModel(latency_s=0.0, delivery_s=0.0)
        rec = TraceRecorder()
        rec.record_send("ph", 0, 1, 0, KB)
        rec.record_recv("ph", 0, 1, 0, KB)
        rec.record_send("ph", 0, 1, 0, KB)
        rec.record_recv("ph", 0, 1, 0, KB)
        prof = inflight_profile(rec.timeline(cost))
        assert prof["ph"]["max_depth"] == 1

    def test_empty_timeline(self):
        assert inflight_profile(TraceRecorder().timeline()) == {}


class TestStallAttribution:
    def test_bridged_wait_charged_to_waiting_phase(self):
        """critical_path bridges a caused wait out of the span path; the
        stalled seconds must still be attributed to the wait's phase."""
        rec = TraceRecorder()
        rec.record_compute("warmup", 0, "slow", 1e9)
        rec.record_send("exchange", 0, 1, 0, KB)
        rec.record_recv("exchange", 0, 1, 0, KB)
        cp = critical_path(rec.timeline())
        stall = cp.wait_by_phase_s()
        assert stall.get("exchange", 0.0) > 0.0
        assert sum(cp.bridged_wait_s.values()) > 0.0

    def test_blocking_send_counts_as_stall(self):
        """A synchronous send's wire time is stalled-in-communication
        time for the sending rank, even though no wait span exists."""
        cost = _wire_heavy()
        rec = TraceRecorder()
        rec.record_send("exchange", 0, 1, 0, 1024 * KB)
        rec.record_recv("exchange", 0, 1, 0, 1024 * KB)
        stall = critical_path(rec.timeline(cost)).wait_by_phase_s()
        assert stall.get("exchange", 0.0) >= cost.wire_time(1024 * KB) * 0.999

    def test_isend_post_not_counted_as_stall(self):
        """Posting returns immediately: a pipelined exchange that never
        blocks contributes (almost) nothing to the stall attribution."""
        cost = _wire_heavy()
        rec = TraceRecorder()
        rec.record_isend("exchange", 0, 1, 0, 1024 * KB)
        rec.record_compute("overlap", 0, "work", 1e12)
        rec.record_recv("exchange", 0, 1, 0, 1024 * KB)
        stall = critical_path(rec.timeline(cost)).wait_by_phase_s()
        # The compute fully hides the wire time, so the exchange phase
        # contributes (almost) nothing — unlike a blocking send, which
        # would put its whole wire time on the path.
        assert stall.get("exchange", 0.0) < 0.1 * cost.wire_time(1024 * KB)

    @pytest.fixture(scope="class")
    def soi_replay(self):
        """Blocking and pipelined distributed SOI, each replayed under a
        5 MB/s injection NIC plus 300 us latency. Maps ``overlap`` to
        (makespan, all-to-all stall on the critical path, in-flight
        max depth of the all-to-all)."""
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
        replay = {}
        for overlap in (False, True):
            rec = TraceRecorder()
            run_spmd(
                nranks,
                lambda comm: soi_fft_distributed(
                    comm, blocks[comm.rank], plan,
                    overlap=overlap, overlap_groups=2,
                ),
                trace=rec,
            )
            tl = rec.timeline(cost)
            replay[overlap] = (
                tl.makespan,
                critical_path(tl).wait_by_phase_s().get("alltoall", 0.0),
                inflight_profile(tl)["alltoall"]["max_depth"],
            )
        return replay

    def test_pipelined_soi_stalls_less_than_blocking(self, soi_replay):
        """The pipelined SOI's critical path spends strictly less time
        stalled in the all-to-all than the blocking one."""
        blk_span, blk_stall, _ = soi_replay[False]
        ovl_span, ovl_stall, _ = soi_replay[True]
        assert blk_span > 0 and ovl_span > 0
        assert ovl_stall < blk_stall

    def test_pipelined_soi_replay_shows_inflight_depth(self, soi_replay):
        """The pipelined path really has all-to-all messages in flight
        together."""
        assert soi_replay[True][2] > 1

    def test_rollup_exports_wait_by_phase(self):
        rec = TraceRecorder()
        rec.record_compute("warmup", 0, "slow", 1e8)
        rec.record_send("exchange", 0, 1, 0, KB)
        rec.record_recv("exchange", 0, 1, 0, KB)
        roll = rollup(rec.timeline())
        assert "wait_by_phase_s" in roll["critical_path"]
        assert isinstance(roll["critical_path"]["wait_by_phase_s"], dict)
