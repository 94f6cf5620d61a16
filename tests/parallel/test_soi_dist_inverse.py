"""Tests for the distributed inverse SOI transform and failure modes."""

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.core import parseval_check, snr_db, soi_fft, soi_ifft
from repro.parallel import soi_fft_distributed, soi_ifft_distributed, split_blocks
from repro.simmpi import InjectedFault, RankFailure, TransportPolicy, run_spmd


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

        def cut_halo(src, dst, tag, payload):
            if isinstance(payload, np.ndarray) and payload.nbytes == full_plan.halo * 16:
                raise InjectedFault("halo link down")
            return payload

        n, nranks = full_plan.n, 4
        blocks = split_blocks(random_complex(n, 84), nranks)
        with pytest.raises(RankFailure) as info:
            run_spmd(
                nranks,
                lambda comm: soi_fft_distributed(comm, blocks[comm.rank], full_plan),
                fault_hook=cut_halo,
                timeout=10,
            )
        assert isinstance(info.value.original, InjectedFault)

    def test_corrupted_alltoall_detected_by_accuracy(self, full_plan):
        """Zeroing one all-to-all payload silently corrupts exactly the
        affected segment — the SNR check catches it.  The damage is done
        before framing, so the transport's CRC sees an intact message;
        the Parseval screen is what flags the output."""

        def zero_one_block(src, dst, tag, payload):
            if (src, dst, tag) == (0, 1, -5):
                return payload * 0 if isinstance(payload, np.ndarray) else payload
            return payload

        n, nranks = full_plan.n, 4
        x = random_complex(n, 85)
        blocks = split_blocks(x, nranks)
        res = run_spmd(
            nranks,
            lambda comm: soi_fft_distributed(comm, blocks[comm.rank], full_plan),
            fault_hook=zero_one_block,
            transport=TransportPolicy(),
        )
        assert res.stats.total_retransmits == 0  # nothing for the CRC to see
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
