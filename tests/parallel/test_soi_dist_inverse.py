"""Tests for the distributed inverse SOI transform and failure modes."""

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.core import parseval_check, snr_db, soi_fft, soi_ifft
from repro.parallel import soi_fft_distributed, soi_ifft_distributed, split_blocks
from repro.simmpi import DeadlockError, FaultPlan, RankFailure, run_spmd


class TestDistributedInverse:
    def test_matches_numpy_ifft(self, full_plan):
        n, nranks = full_plan.n, 4
        y = random_complex(n, 80)
        blocks = split_blocks(y, nranks)
        res = run_spmd(
            nranks, lambda comm: soi_ifft_distributed(comm, blocks[comm.rank], full_plan)
        )
        x = np.concatenate(res.values)
        assert snr_db(x, np.fft.ifft(y)) > 280.0

    def test_matches_sequential_inverse_bitwise(self, full_plan):
        n, nranks = full_plan.n, 2
        y = random_complex(n, 81)
        blocks = split_blocks(y, nranks)
        res = run_spmd(
            nranks, lambda comm: soi_ifft_distributed(comm, blocks[comm.rank], full_plan)
        )
        np.testing.assert_array_equal(
            np.concatenate(res.values), soi_ifft(y, full_plan)
        )

    def test_single_alltoall_preserved(self, full_plan):
        """The inverse inherits the forward transform's communication."""
        n, nranks = full_plan.n, 4
        blocks = split_blocks(random_complex(n, 82), nranks)
        res = run_spmd(
            nranks, lambda comm: soi_ifft_distributed(comm, blocks[comm.rank], full_plan)
        )
        assert res.stats.alltoall_rounds == 1

    def test_forward_inverse_roundtrip(self, full_plan):
        n, nranks = full_plan.n, 4
        x = random_complex(n, 83)
        blocks = split_blocks(x, nranks)

        def prog(comm):
            y_loc = soi_fft_distributed(comm, blocks[comm.rank], full_plan)
            return soi_ifft_distributed(comm, y_loc, full_plan)

        res = run_spmd(nranks, prog)
        assert snr_db(np.concatenate(res.values), x) > 270.0


class TestFailureModes:
    def test_halo_link_failure_aborts_cleanly(self, full_plan):
        """Cutting the halo channel must abort the whole job (no hang,
        no wrong answer)."""
        n, nranks = full_plan.n, 4
        blocks = split_blocks(random_complex(n, 84), nranks)
        cut = FaultPlan().drop(phase="halo", src=1, dst=0, times=None)
        with pytest.raises(RankFailure) as info:
            run_spmd(
                nranks,
                lambda comm: soi_fft_distributed(comm, blocks[comm.rank], full_plan),
                faults=cut,
                engine="des",
                timeout=10,
            )
        assert isinstance(info.value.original, DeadlockError)
        assert info.value.rank == 0
        assert cut.log and all(entry[:4] == ("drop", "halo", 1, 0) for entry in cut.log)

    def test_corrupted_alltoall_detected_by_accuracy(self, full_plan):
        """A bit flipped in one all-to-all payload on the raw wire (no
        reliable transport, so no CRC) silently corrupts exactly the
        affected segment — the Parseval screen flags the output."""
        n, nranks = full_plan.n, 4
        x = random_complex(n, 85)
        blocks = split_blocks(x, nranks)
        flip = FaultPlan().bitflip(phase="alltoall", src=0, dst=1)
        res = run_spmd(
            nranks,
            lambda comm: soi_fft_distributed(comm, blocks[comm.rank], full_plan),
            faults=flip,
        )
        assert len(flip.log) == 1
        y = np.concatenate(res.values)
        assert not parseval_check(x, y, full_plan)
        assert parseval_check(x, soi_fft(x, full_plan), full_plan)
        ref = np.fft.fft(x)
        block = n // nranks
        # rank 1's segments are damaged...
        assert snr_db(y[block : 2 * block], ref[block : 2 * block]) < 100.0
        # ...every other rank's output is untouched.
        assert snr_db(y[:block], ref[:block]) > 280.0
        assert snr_db(y[2 * block :], ref[2 * block :]) > 280.0
