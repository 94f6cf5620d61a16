"""Unit tests for the span recorder on the DES engine's virtual clock."""

import numpy as np
import pytest

from repro.simmpi import run_spmd
from repro.trace import SPAN_KINDS, TraceCostModel, TraceRecorder


class TestCostModel:
    def test_compute_time_uses_kind_efficiency(self):
        cost = TraceCostModel()
        flops = 1e9
        fft = cost.compute_time(flops, "fft")
        conv = cost.compute_time(flops, "conv")
        assert fft == pytest.approx(flops / (cost.node.dp_gflops * 1e9 * 0.10))
        assert conv == pytest.approx(flops / (cost.node.dp_gflops * 1e9 * 0.40))
        assert fft > conv  # FFT stages run at lower efficiency

    def test_wire_time_scales_with_bytes(self):
        cost = TraceCostModel()
        assert cost.wire_time(2000) == pytest.approx(2 * cost.wire_time(1000))
        assert cost.wire_time(0) == 0.0


class TestRecorderLifecycle:
    def test_attach_is_idempotent_per_world(self):
        rec = TraceRecorder()

        def prog(comm):
            rec.attach(comm.world)  # every rank attaches; must not raise
            return comm.rank

        run_spmd(4, prog, trace=rec)
        assert rec.nevents == 0  # no traced operations in this program

    def test_second_recorder_on_same_world_rejected(self):
        first, second = TraceRecorder(), TraceRecorder()

        def prog(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError, match="different TraceRecorder"):
                    second.attach(comm.world)
            comm.barrier()

        run_spmd(2, prog, trace=first)

    def test_new_run_clears_events(self):
        rec = TraceRecorder()

        def prog(comm):
            comm.barrier()

        run_spmd(2, prog, trace=rec)
        assert rec.nevents > 0
        rec.new_run()
        assert rec.nevents == 0
        assert rec.timeline().spans == []

    def test_restart_traces_only_successful_attempt(self):
        from repro.simmpi import FaultPlan

        rec = TraceRecorder()
        faults = FaultPlan().kill(1, phase="work")

        def prog(comm):
            with comm.phase("work"):
                comm.barrier()
            return comm.rank

        res = run_spmd(2, prog, trace=rec, faults=faults, max_restarts=1)
        assert res.restarts == 1
        # Exactly one barrier event per rank — the killed attempt was dropped.
        tl = rec.timeline()
        barriers = [s for s in tl.spans if s.name == "barrier"]
        assert len(barriers) == 2


def _des(nranks, prog, **kwargs):
    """Run *prog* traced on the DES engine: ``(result, timeline)``."""
    rec = TraceRecorder()
    res = run_spmd(nranks, prog, engine="des", trace=rec, **kwargs)
    return res, rec.timeline()


class TestReplay:
    """Spans stamped by the DES clock as the run executes."""

    def test_leaf_spans_tile_each_rank_timeline(self):
        def prog(comm):
            comm.trace_compute("work", 1e6 * (comm.rank + 1))
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.sendrecv(np.zeros(64), dest=right, source=left)
            comm.barrier()

        res, tl = _des(3, prog)
        for rank in tl.ranks:
            leaves = tl.rank_spans(rank, leaf_only=True)
            assert leaves[0].t0 == 0.0
            for a, b in zip(leaves, leaves[1:]):
                assert b.t0 == a.t1
            assert all(s.kind in SPAN_KINDS for s in leaves)
        assert tl.makespan == res.virtual_time_s

    def test_late_receiver_gets_wait_span_with_cause(self):
        def prog(comm):
            if comm.rank == 0:
                comm.trace_compute("slow", 1e8)  # ~3 ms of virtual compute
                comm.send(np.zeros(8), dest=1)
            else:
                comm.recv(source=0)

        _, tl = _des(2, prog)
        waits = [s for s in tl.spans if s.kind == "wait" and s.rank == 1]
        assert len(waits) == 1
        sends = [s for s in tl.spans if s.kind == "send"]
        assert waits[0].cause == sends[0].uid
        # The wait ends when the message arrives: the send's wire time,
        # one latency and the receiver's delivery handoff after the post.
        cost = TraceCostModel()
        assert waits[0].t1 == pytest.approx(
            sends[0].t1 + cost.wire_time(64) + cost.latency_s + cost.delivery_s
        )

    def test_fifo_channel_matching_preserves_order(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), dest=1)
                comm.send(np.zeros(1000), dest=1)
            else:
                comm.recv(source=0)
                comm.recv(source=0)

        _, tl = _des(2, prog)
        recvs = sorted(
            (s for s in tl.spans if s.kind == "recv"), key=lambda s: s.t0
        )
        assert [s.nbytes for s in recvs] == [80, 8000]

    def test_barrier_synchronises_all_ranks(self):
        def prog(comm):
            comm.trace_compute("skewed", 1e6 * (comm.rank + 1))
            comm.barrier()
            return None

        _, tl = _des(3, prog)
        barriers = [s for s in tl.spans if s.name == "barrier"]
        assert len(barriers) == 3
        assert len({(s.t0, s.t1) for s in barriers}) == 1  # same release window
        # Ranks 0 and 1 arrived early and must show barrier waits.
        waiters = {s.rank for s in tl.spans if s.name == "barrier-wait"}
        assert waiters == {0, 1}
        last = [s for s in tl.spans if s.rank == 2 and s.name == "skewed"][0]
        assert all(s.cause == last.uid for s in barriers)

    def test_replay_with_alternate_cost_model_rescales(self):
        def prog(comm):
            comm.trace_compute("work", 1e7)
            comm.barrier()

        _, base = _des(2, prog)
        _, slow = _des(2, prog, cost_model=TraceCostModel(fft_efficiency=0.05))
        assert slow.makespan > base.makespan
        assert len(slow.spans) == len(base.spans)

    def test_collective_spans_bracket_their_transfers(self):
        def prog(comm):
            return comm.alltoall([np.zeros(32) for _ in range(comm.size)])

        _, tl = _des(4, prog)
        colls = [s for s in tl.spans if s.kind == "collective"]
        assert len(colls) == 4  # one epoch marker per rank
        assert all(not s.leaf for s in colls)
        for c in colls:
            inner = [
                s
                for s in tl.spans
                if s.leaf and s.rank == c.rank and s.kind in ("send", "recv", "wait")
            ]
            assert inner, "epoch should contain transfers"
            assert all(c.t0 <= s.t0 and s.t1 <= c.t1 for s in inner)

    def test_thread_engine_stamps_wall_clock(self):
        rec = TraceRecorder()

        def prog(comm):
            comm.trace_compute("work", 1e6)
            comm.barrier()

        res = run_spmd(2, prog, trace=rec)
        tl = rec.timeline()
        assert res.virtual_time_s is None
        kinds = [s.kind for s in tl.spans if s.rank == 0 and s.kind != "wait"]
        assert kinds == ["compute", "collective"]
        for rank in tl.ranks:
            leaves = [s for s in tl.spans if s.rank == rank and s.leaf]
            assert leaves[0].t0 == 0.0
            assert all(a.t1 == b.t0 for a, b in zip(leaves, leaves[1:]))


class TestNodeAwareReplay:
    """The world's node map prices same-node transfers: no NIC, no wire."""

    @staticmethod
    def _body(comm):
        if comm.rank == 0:
            comm.send(np.zeros(1 << 15), dest=1)
        else:
            comm.recv(source=0)

    def test_recorder_learns_the_worlds_node_shape(self):
        _, flat = _des(2, self._body)
        _, node = _des(2, self._body, ranks_per_node=2)
        # Identical program; the same-node run skips the modelled NIC
        # serialisation and wire latency, so it is strictly faster.
        assert node.makespan < flat.makespan

    def test_explicit_cost_model_prices_same_node_cheap(self):
        _, fast = _des(
            2, self._body, ranks_per_node=2,
            cost_model=TraceCostModel(intra_node_s=1e-7),
        )
        _, slow = _des(
            2, self._body, ranks_per_node=2,
            cost_model=TraceCostModel(intra_node_s=1e-2),
        )
        assert slow.makespan > fast.makespan
