"""Tests for the distributed real-input SOI FFT (packed half-length trick).

The contract: rank-blocked real input in, ``numpy.fft.rfft`` out (to the
half-length plan's SOI accuracy), with the one all-to-all at HALF the
bytes of the equivalent complex transform and only O(N) extra traffic in
the separate ``"untangle"`` phase.
"""

import numpy as np
import pytest

from repro.core import SoiPlan
from repro.parallel import (
    SoiResilience,
    rfft_distributed,
    soi_fft_distributed,
    split_blocks,
)
from repro.simmpi import run_spmd

N = 8192  # full (real) length; the half-length plan transforms N/2
P = 8


def random_real(n, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


@pytest.fixture(scope="module")
def half_plan():
    return SoiPlan(n=N // 2, p=P)


def run_rfft(x, plan, nranks, **kwargs):
    blocks = split_blocks(x, nranks)
    res = run_spmd(
        nranks,
        lambda comm: rfft_distributed(comm, blocks[comm.rank], plan, **kwargs),
    )
    return np.concatenate(res.values), res.stats


class TestCorrectness:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_matches_numpy_rfft(self, half_plan, nranks):
        x = random_real(N, seed=11)
        y, _ = run_rfft(x, half_plan, nranks)
        ref = np.fft.rfft(x)
        assert y.shape == ref.shape
        assert np.max(np.abs(y - ref)) / np.max(np.abs(ref)) < 1e-9

    def test_rank_count_invariance(self, half_plan):
        """Output bins depend on the input, not on how many ranks computed
        them — every rank count must agree bitwise with the 1-rank run."""
        x = random_real(N, seed=12)
        y1, _ = run_rfft(x, half_plan, 1)
        for nranks in (2, 4):
            yk, _ = run_rfft(x, half_plan, nranks)
            assert np.array_equal(yk, y1)

    def test_output_blocks_are_in_order(self, half_plan):
        x = random_real(N, seed=13)
        blocks = split_blocks(x, 4)
        res = run_spmd(
            4, lambda comm: rfft_distributed(comm, blocks[comm.rank], half_plan)
        )
        hblk = (N // 2) // 4
        full = np.concatenate(res.values)
        for rank, y_local in enumerate(res.values):
            expect = hblk + 1 if rank == 3 else hblk
            assert y_local.shape == (expect,)
        assert full.shape == (N // 2 + 1,)

    def test_overlap_passthrough(self, half_plan):
        """soi kwargs (pipelined exchange) pass through bitwise."""
        x = random_real(N, seed=14)
        y_block, _ = run_rfft(x, half_plan, 4)
        y_over, _ = run_rfft(x, half_plan, 4, overlap=True)
        assert np.array_equal(y_over, y_block)

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_resilience_passthrough_is_bit_transparent(self, half_plan, nranks):
        """Fault-free, the replica ring and the untangle's mirror swap run
        side by side on their own tags (at R=2 both go to the same
        neighbour) and the spectrum keeps every bit."""
        x = random_real(N, seed=16)
        y_plain, _ = run_rfft(x, half_plan, nranks)
        blocks = split_blocks(x, nranks)
        res = SoiResilience()
        out = run_spmd(
            nranks,
            lambda comm: rfft_distributed(
                comm, blocks[comm.rank], half_plan, resilience=res
            ),
            resilient=True,
            timeout=30,
        )
        assert np.array_equal(np.concatenate(out.values), y_plain)
        assert not res.degraded

    def test_complex64_plan(self):
        plan = SoiPlan(n=N // 2, p=P, dtype=np.complex64)
        x = random_real(N, seed=15)
        y, _ = run_rfft(x, plan, 4)
        assert y.dtype == np.complex64
        ref = np.fft.rfft(x)
        assert np.max(np.abs(y - ref)) / np.max(np.abs(ref)) < 1e-5


class TestValidation:
    def test_rejects_complex_input(self, half_plan):
        z = random_real(N, seed=16).astype(np.complex128)
        blocks = split_blocks(z, 4)
        with pytest.raises(Exception, match="real input"):
            run_spmd(
                4,
                lambda comm: rfft_distributed(comm, blocks[comm.rank], half_plan),
            )

    def test_rejects_wrong_block_size(self, half_plan):
        x = random_real(N // 2, seed=17)
        blocks = split_blocks(x, 4)
        with pytest.raises(Exception, match="local block"):
            run_spmd(
                4,
                lambda comm: rfft_distributed(comm, blocks[comm.rank], half_plan),
            )

    def test_too_many_ranks_for_halo(self, half_plan):
        # (N/2)/8 = 512 < halo 592: the half-length layout must refuse.
        x = random_real(N, seed=18)
        blocks = split_blocks(x, 8)
        with pytest.raises(Exception, match="halo"):
            run_spmd(
                8,
                lambda comm: rfft_distributed(comm, blocks[comm.rank], half_plan),
            )


class TestTraffic:
    def test_alltoall_is_half_of_complex_path(self, half_plan):
        """THE claim: the real-input path halves the paper's one exchange."""
        nranks = 4
        x = random_real(N, seed=19)
        _, rstats = run_rfft(x, half_plan, nranks)

        full_plan = SoiPlan(n=N, p=P)
        z = x.astype(np.complex128)
        zblocks = split_blocks(z, nranks)
        cres = run_spmd(
            nranks,
            lambda comm: soi_fft_distributed(comm, zblocks[comm.rank], full_plan),
        )
        half_bytes = rstats.phase("alltoall").total_bytes
        full_bytes = cres.stats.phase("alltoall").total_bytes
        assert half_bytes == full_bytes // 2

    def test_untangle_traffic_is_separate_and_linear(self, half_plan):
        nranks = 4
        x = random_real(N, seed=20)
        _, stats = run_rfft(x, half_plan, nranks)
        untangle = stats.phase("untangle").total_bytes
        # One block swap per rank pair + the one-element ring + Nyquist:
        # ~N/2 complex points total, nothing like the all-to-all volume.
        assert 0 < untangle <= (N // 2 + 2 * nranks) * 16
        assert untangle < stats.phase("alltoall").total_bytes
