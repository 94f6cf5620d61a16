"""Tests for the pipelined (overlap=True) distributed SOI FFT.

The contract under test: the pipelined path is a pure *scheduling*
transformation — outputs, traffic byte totals, and composition with
the reliable transport and trace= are bit-for-bit identical to the blocking path; only
message granularity and timing change.
"""

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.check import fuzz_distributed_soi
from repro.core import SoiPlan
from repro.parallel import soi_fft_distributed, soi_rank_layout, split_blocks
from repro.parallel.soi_dist import soi_overlap_spans
from repro.simmpi import SpmdError, TransportPolicy, run_spmd
from repro.trace import TraceRecorder


def _both(x, plan, nranks, seq_dist, **overlap_kwargs):
    """Run blocking and pipelined; return ((y_blk, stats), (y_ovl, stats))."""
    blk = seq_dist.distributed(x, plan, nranks)
    ovl = seq_dist.distributed(x, plan, nranks, overlap=True, **overlap_kwargs)
    return blk, ovl


class TestBitwise:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_forward_matches_blocking(self, seq_dist, full_plan, nranks):
        x = random_complex(full_plan.n, 11)
        (y_blk, _), (y_ovl, _) = _both(x, full_plan, nranks, seq_dist)
        np.testing.assert_array_equal(y_ovl, y_blk)

    @pytest.mark.parametrize("groups", [2, 3, 5])
    def test_group_count_invariance(self, seq_dist, full_plan, groups):
        x = random_complex(full_plan.n, 12)
        (y_blk, _), (y_ovl, _) = _both(
            x, full_plan, 4, seq_dist, overlap_groups=groups
        )
        np.testing.assert_array_equal(y_ovl, y_blk)

    def test_bitwise_vs_sequential(self, seq_dist, full_plan):
        """Strongest form: pipelined == the *sequential* transform."""
        seq_dist.assert_bitwise_vs_sequential(
            random_complex(full_plan.n, 13), full_plan, 4, overlap=True
        )

    def test_inverse_matches_blocking(self, seq_dist, full_plan):
        seq_dist.assert_bitwise_vs_sequential(
            random_complex(full_plan.n, 14), full_plan, 4,
            inverse=True, overlap=True,
        )

    def test_repro_backend(self, seq_dist, full_plan):
        seq_dist.assert_bitwise_vs_sequential(
            random_complex(full_plan.n, 15), full_plan, 4,
            backend="repro", overlap=True,
        )

    def test_multiple_segments_per_rank(self, seq_dist, medium_plan):
        seq_dist.assert_bitwise_vs_sequential(
            random_complex(medium_plan.n, 16), medium_plan, 2, overlap=True
        )

    def test_single_rank_degenerates_to_blocking(self, seq_dist, full_plan):
        seq_dist.assert_bitwise_vs_sequential(
            random_complex(full_plan.n, 17), full_plan, 1, overlap=True
        )


class TestComposition:
    def test_transport_is_bit_transparent(self, seq_dist, full_plan):
        x = random_complex(full_plan.n, 21)
        (y_blk, _), (y_ovl, _) = _both(x, full_plan, 4, seq_dist)
        y_rel, stats = seq_dist.distributed(
            x, full_plan, 4, overlap=True,
            run_kwargs={"transport": TransportPolicy()},
        )
        np.testing.assert_array_equal(y_rel, y_ovl)
        np.testing.assert_array_equal(y_rel, y_blk)
        assert stats.phase("alltoall").acks > 0  # the transport really ran
        assert stats.total_retransmits == 0

    def test_unknown_alltoall_algorithm_rejected(self, full_plan):
        """The pipelined path keeps its own piece schedule, but the
        world validates the name before any rank runs, as for the
        blocking path."""
        blocks = split_blocks(random_complex(full_plan.n, 23), 4)
        with pytest.raises(ValueError, match="unknown alltoall algorithm 'bogus'"):
            run_spmd(
                4,
                lambda comm: soi_fft_distributed(
                    comm, blocks[comm.rank], full_plan, overlap=True
                ),
                alltoall_algorithm="bogus",
                timeout=10,
            )

    def test_trace_is_bit_transparent_and_sees_isends(self, seq_dist, full_plan):
        x = random_complex(full_plan.n, 22)
        (y_blk, _), _ = _both(x, full_plan, 4, seq_dist)
        rec = TraceRecorder()
        y_tr, _ = seq_dist.distributed(
            x, full_plan, 4, overlap=True, run_kwargs={"trace": rec}
        )
        np.testing.assert_array_equal(y_tr, y_blk)
        tl = rec.timeline()
        assert any(s.kind == "isend" for s in tl.spans)
        assert any(s.kind == "wait" for s in tl.spans)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fuzzed_schedules_stay_bitwise(self, seed):
        report = fuzz_distributed_soi(
            n=2048, p=8, nranks=4, window="digits10", schedules=5,
            seed=f"overlap-suite/{seed}", overlap=True,
        )
        assert report.ok, report.mismatches
        assert report.distinct_interleavings > 1


class TestTraffic:
    def test_phase_byte_totals_match_blocking(self, seq_dist, full_plan):
        """Overlap changes message granularity, never total volume."""
        x = random_complex(full_plan.n, 31)
        (_, st_blk), (_, st_ovl) = _both(x, full_plan, 4, seq_dist)
        assert sorted(st_blk.phases()) == sorted(st_ovl.phases())
        for name in st_blk.phases():
            assert (
                st_ovl.phase(name).total_bytes == st_blk.phase(name).total_bytes
            ), name
        assert st_ovl.phase("alltoall").alltoall_rounds == 1

    def test_halo_bytes_are_exactly_one_stencil(self, full_plan):
        """Zero-copy halo regression: each rank sends exactly its halo
        window once — a reintroduced defensive copy would not change
        this, but a double-send or widened window would."""
        nranks = 4
        x = random_complex(full_plan.n, 32)
        blocks = split_blocks(x, nranks)
        res = run_spmd(
            nranks,
            lambda comm: soi_fft_distributed(comm, blocks[comm.rank], full_plan),
        )
        halo_bytes = res.stats.phase("halo").total_bytes
        assert halo_bytes == nranks * full_plan.halo * 16  # complex128

    def test_halo_send_is_zero_copy(self, full_plan):
        """The halo payload a neighbour receives must be the *same
        ndarray memory* the sender sliced — no defensive copy on the
        send path (receivers only read; the substrate passes references)."""
        nranks = 2
        x = random_complex(full_plan.n, 33)
        blocks = split_blocks(x, nranks)

        def prog(comm):
            vec = np.ascontiguousarray(blocks[comm.rank], dtype=np.complex128)
            left = (comm.rank - 1) % comm.size
            right = (comm.rank + 1) % comm.size
            halo = comm.sendrecv(vec[: full_plan.halo], dest=left, source=right)
            # Round-trip the received object's identity: hand it back to
            # its owner, who checks it shares memory with the original.
            back = comm.sendrecv(halo, dest=right, source=left)
            return np.shares_memory(back, vec)

        assert all(run_spmd(nranks, prog).values)

    def test_overlap_max_outstanding_depth_recorded(self, full_plan):
        nranks = 4
        x = random_complex(full_plan.n, 34)
        blocks = split_blocks(x, nranks)
        res = run_spmd(
            nranks,
            lambda comm: soi_fft_distributed(
                comm, blocks[comm.rank], full_plan, overlap=True
            ),
        )
        # Pipelined drain posts all (nranks-1)*groups piece irecvs up
        # front, plus the in-flight sends; blocking would show depth 0.
        assert res.stats.phase("alltoall").max_outstanding >= nranks - 1
        assert res.stats.phase("halo").max_outstanding >= 1


class TestOverlapSpans:
    def test_spans_partition_all_windows(self, full_plan):
        layout = soi_rank_layout(full_plan, 4)
        for groups in (2, 3, 4, 7):
            spans, halo_free = soi_overlap_spans(
                full_plan, layout["block"], groups
            )
            # Exact partition of [0, q_local): contiguous, gap-free.
            assert spans[0][0] == 0
            assert spans[-1][1] == layout["chunks_per_rank"]
            for (_, a1), (b0, _) in zip(spans, spans[1:]):
                assert a1 == b0
            assert all(q1 > q0 for q0, q1 in spans)
            assert 0 <= halo_free <= layout["chunks_per_rank"]

    def test_first_group_is_halo_free_prefix(self, full_plan):
        layout = soi_rank_layout(full_plan, 4)
        spans, halo_free = soi_overlap_spans(full_plan, layout["block"], 3)
        if halo_free:
            assert spans[0] == (0, halo_free)

    def test_halo_free_windows_fit_in_block(self, full_plan):
        """Window q reads raw samples [q*nu*P, q*nu*P + B*P); every
        halo-free window must stay inside the local block."""
        layout = soi_rank_layout(full_plan, 4)
        _, halo_free = soi_overlap_spans(full_plan, layout["block"], 2)
        p = full_plan.p
        if halo_free:
            last = halo_free - 1
            assert last * full_plan.nu * p + full_plan.b * p <= layout["block"]
        # And the very next window must need the halo.
        if halo_free < layout["chunks_per_rank"]:
            assert (
                halo_free * full_plan.nu * p + full_plan.b * p
                > layout["block"]
            )

    def test_requires_at_least_two_groups(self, full_plan):
        layout = soi_rank_layout(full_plan, 4)
        with pytest.raises(Exception, match="overlap_groups"):
            soi_overlap_spans(full_plan, layout["block"], 1)

    def test_more_groups_than_windows_drops_empty(self, small_plan):
        layout = soi_rank_layout(small_plan, 2)
        spans, _ = soi_overlap_spans(small_plan, layout["block"], 50)
        assert spans[-1][1] == layout["chunks_per_rank"]
        assert all(q1 > q0 for q0, q1 in spans)
