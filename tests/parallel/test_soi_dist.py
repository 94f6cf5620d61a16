"""Tests for the distributed SOI FFT — communication structure and
bit-exact agreement with the sequential algorithm."""

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.core import SoiPlan, snr_db
from repro.parallel import soi_fft_distributed, soi_rank_layout, split_blocks
from repro.simmpi import run_spmd
from tests.conftest import (
    SNR_DIGITS10_DB,
    SNR_FULL_DB,
    SNR_FULL_REPRO_DB,
    SNR_SEGMENT_DB,
    SeqDistHarness,
)


def run_soi(n, nranks, plan, seed=0, **kwargs):
    x = random_complex(n, seed)
    y, stats = SeqDistHarness.distributed(x, plan, nranks, **kwargs)
    return x, y, stats


class TestCorrectness:
    def test_matches_numpy(self, full_plan):
        x, y, _ = run_soi(full_plan.n, 4, full_plan, seed=1)
        assert snr_db(y, np.fft.fft(x)) > SNR_FULL_DB

    def test_bitwise_equal_to_sequential(self, seq_dist, full_plan):
        """The distributed pipeline performs the identical flop sequence."""
        seq_dist.assert_bitwise_vs_sequential(
            random_complex(full_plan.n, 2), full_plan, 4
        )

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_rank_count_invariance(self, seq_dist, full_plan, nranks):
        seq_dist.assert_bitwise_vs_sequential(
            random_complex(full_plan.n, 3), full_plan, nranks
        )

    def test_eight_ranks(self, seq_dist, medium_plan):
        # full_plan's halo (592) exceeds the 8-rank block (512); the
        # medium plan's smaller stencil fits.
        seq_dist.assert_bitwise_vs_sequential(
            random_complex(medium_plan.n, 3), medium_plan, 8
        )

    def test_multiple_segments_per_rank(self, medium_plan):
        """The paper's configuration: 8 segments per process."""
        x, y, _ = run_soi(medium_plan.n, 2, medium_plan, seed=4)
        assert snr_db(y, np.fft.fft(x)) > SNR_DIGITS10_DB

    def test_repro_backend(self, full_plan):
        x, y, _ = run_soi(full_plan.n, 4, full_plan, seed=5, backend="repro")
        assert snr_db(y, np.fft.fft(x)) > SNR_FULL_REPRO_DB

    def test_output_is_in_order(self, full_plan):
        """In-order property: rank i's output is exactly y[i*N/R:(i+1)*N/R]."""
        n, nranks = full_plan.n, 4
        x = random_complex(n, 6)
        blocks = split_blocks(x, nranks)
        res = run_spmd(
            nranks, lambda comm: soi_fft_distributed(comm, blocks[comm.rank], full_plan)
        )
        ref = np.fft.fft(x)
        block = n // nranks
        for r in range(nranks):
            assert snr_db(res[r], ref[r * block : (r + 1) * block]) > SNR_SEGMENT_DB


class TestCommunicationStructure:
    def test_exactly_one_alltoall(self, full_plan):
        """THE paper claim: one global exchange, vs three for standard."""
        _, _, stats = run_soi(full_plan.n, 4, full_plan, seed=7)
        assert stats.alltoall_rounds == 1

    def test_alltoall_volume_is_oversampled_payload(self, full_plan):
        """The single exchange moves N' = (1+beta) N points total
        (off-node share (R-1)/R of them)."""
        nranks = 4
        _, _, stats = run_soi(full_plan.n, nranks, full_plan, seed=8)
        ph = stats.phase("alltoall")
        expected_total = full_plan.n_over * 16
        assert ph.total_bytes == expected_total
        assert ph.offnode_bytes() == expected_total * (nranks - 1) // nranks

    def test_halo_volume_matches_fig4(self, full_plan):
        """Each rank receives exactly (B - nu) * P samples from its
        forward neighbour."""
        nranks = 4
        _, _, stats = run_soi(full_plan.n, nranks, full_plan, seed=9)
        ph = stats.phase("halo")
        assert ph.offnode_bytes() == nranks * full_plan.halo * 16

    def test_halo_messages_are_neighbor_only(self, full_plan):
        nranks = 4
        _, _, stats = run_soi(full_plan.n, nranks, full_plan, seed=10)
        for (src, dst), nbytes in stats.phase("halo").bytes_by_pair.items():
            assert dst == (src - 1) % nranks, "halo must flow to the left neighbour"

    def test_fft_phases_are_communication_free(self, full_plan):
        _, _, stats = run_soi(full_plan.n, 4, full_plan, seed=11)
        assert set(stats.phases()) <= {"halo", "alltoall", "default"}
        assert stats.phase("default").total_bytes == 0


class TestLayoutValidation:
    def test_layout_summary(self, full_plan):
        layout = soi_rank_layout(full_plan, 4)
        assert layout["segments_per_rank"] == 2
        assert layout["rows_per_rank"] == full_plan.m_over // 4
        assert layout["block"] == full_plan.n // 4

    def test_ranks_must_divide_p(self, full_plan):
        with pytest.raises(ValueError, match="divide P"):
            soi_rank_layout(full_plan, 3)

    def test_whole_chunks_required(self):
        plan = SoiPlan(n=2048, p=8, window="digits6")
        # block = 256, nu*P = 32 -> 8 whole chunks per rank at 8 ranks.
        assert soi_rank_layout(plan, 8)["chunks_per_rank"] == 8

    def test_halo_must_fit_in_block(self):
        plan = SoiPlan(n=2048, p=16, window="digits8")  # halo = 32*16 = 512
        # at 16 ranks block = 128 < halo
        with pytest.raises(ValueError, match="halo"):
            soi_rank_layout(plan, 16)

    def test_wrong_block_shape_rejected(self, full_plan):
        def prog(comm):
            return soi_fft_distributed(
                comm, np.zeros(10, dtype=complex), full_plan
            )

        with pytest.raises(Exception, match="local block"):
            run_spmd(4, prog, timeout=5)

    @pytest.mark.parametrize("backend, error", [("bogus", ValueError), (3, TypeError)])
    def test_bad_backend_rejected(self, full_plan, backend, error):
        def prog(comm):
            block = full_plan.n // comm.size
            return soi_fft_distributed(
                comm, np.zeros(block, dtype=complex), full_plan, backend=backend
            )

        with pytest.raises(Exception, match="backend") as info:
            run_spmd(4, prog, timeout=5)
        assert isinstance(info.value.original, error)
