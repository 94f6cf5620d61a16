"""The column kernel and the BLAS fact it rests on.

Short transforms (SOI's ``P``) run down fixed-width column blocks:
every product is ``F_R @ (R, BLOCK_COLUMNS)``, the ragged last block
zero-padded (:meth:`repro.dft.engine.GemmStockham.forward_columns`).
No caller passes a global column offset, so bitwise seq == dist and
coalesced == solo hold only because a same-shaped GEMM gives a column
the same bits wherever it sits and whatever its neighbours are.  That
is a property of the BLAS, not of this code: it is checked here by
name, so a BLAS that breaks it fails *here* rather than as a seq != dist
mismatch somewhere downstream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SoiPlan, soi_fft
from repro.dft import FftPlan, plan_for
from repro.dft.engine import BLOCK_COLUMNS, GemmStockham, radix_schedule
from tests.conftest import SeqDistHarness

W = BLOCK_COLUMNS
PRECISIONS = {"double": np.complex128, "single": np.complex64}
POW2 = [1 << k for k in range(7)]  # every power of two up to 64


def signal(shape, seed, ctype=np.complex128):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(ctype)


class TestLayoutRule:
    @pytest.mark.parametrize("n", POW2)
    def test_soi_segment_counts_run_down_the_columns(self, n):
        assert GemmStockham(n, np.complex128).column_native

    @pytest.mark.parametrize("n", [256, 3000, 4096, 65536])
    def test_kernel_tier_shapes_run_along_the_rows(self, n):
        assert not GemmStockham(n, np.complex128).column_native


class TestSliceBitwise:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from(POW2),
        precision=st.sampled_from(sorted(PRECISIONS)),
        cut=st.tuples(
            st.integers(0, 2 * W + 37), st.integers(0, 2 * W + 37)
        ).filter(lambda c: c[0] != c[1]),
    )
    def test_a_slice_gets_the_whole_arrays_bits(self, n, precision, cut):
        """(a) Cuts ragged against the block width: the slice's blocks
        start elsewhere and its last block is padded differently."""
        a, b = sorted(cut)
        plan = plan_for(n, precision=precision)
        xt = signal((n, 2 * W + 37), seed=n, ctype=PRECISIONS[precision])
        np.testing.assert_array_equal(
            plan.execute_tt(xt[:, a:b]), plan.execute_tt(xt)[:, a:b]
        )


class TestBlasColumnInvariance:
    @pytest.mark.parametrize("r", sorted({r for n in POW2 for r in radix_schedule(n)}))
    @pytest.mark.parametrize("ctype", [np.complex128, np.complex64])
    def test_same_shape_gemm_gives_a_column_the_same_bits_anywhere(self, r, ctype):
        """(b) The running BLAS: F_R @ (R, W) computes a column to the
        same bits at every position, beside random neighbours."""
        f = GemmStockham(r, ctype).matrices[0]
        rng = np.random.default_rng(r)
        col = signal((r, 1), seed=1000 + r, ctype=ctype)[:, 0]
        x = np.empty((r, W), dtype=ctype)
        want = None
        for j in range(W):
            x[:] = signal((r, W), seed=int(rng.integers(1 << 30)), ctype=ctype)
            x[:, j] = col
            got = np.matmul(f, x)[:, j]
            if want is None:
                want = got
            assert np.array_equal(got, want), f"column at position {j} changed bits"


class TestDistributedBitwise:
    @pytest.mark.parametrize("ctype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_rank_ranges_off_the_block_grid(self, ctype, overlap):
        """(c) P = 16 at N = 2^14: M' = 1280 columns, 320 per rank at 4
        ranks, so no rank's range starts or ends on a block boundary."""
        plan = SoiPlan(n=1 << 14, p=16, dtype=ctype)
        assert (plan.m_over // 4) % W
        x = signal(plan.n, seed=7)
        SeqDistHarness.assert_bitwise_vs_sequential(
            x, plan, 4, backend="repro", overlap=overlap
        )

    def test_coalesced_batch_is_solo(self):
        plan = SoiPlan(n=1 << 14, p=16)
        x = signal((3, plan.n), seed=8)
        stacked = soi_fft(x, plan, backend="repro")
        for row, y in zip(x, stacked):
            np.testing.assert_array_equal(soi_fft(row, plan, backend="repro"), y)


class TestAccounting:
    @pytest.mark.parametrize("n", [16, 64, 1280])
    def test_each_entry_point_counts_each_transform_once(self, n):
        plan = FftPlan(n)
        plan.execute(signal((3, n), seed=1))
        plan.execute_tt(signal((n, 5), seed=2))
        plan.execute(signal((2, n), seed=3), inverse=True)
        assert plan.executions == 3 + 5 + 2
