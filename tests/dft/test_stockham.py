"""Power-of-two transforms of the GEMM Stockham engine.

The oracle is the seed's recursive decimation-in-time radix-2 kernel,
embedded below.  The engine sums in a different order (one ``F_R``
product per pass), so it agrees with the oracle to rounding; what stays
*bitwise* is the engine's own contract — the one-shots are the plan, a
stacked call is its rows, and the column entry point is the transposed
row transform.
"""

import numpy as np
import pytest

from repro.dft import clear_plan_cache, fft, ifft, plan_for
from repro.dft.engine import GemmStockham, radix_schedule
from repro.dft.twiddle import twiddles
from repro.utils import bit_reverse_indices


def _seed_dit_core(x, sign):
    """The seed radix2.py kernel, the oracle."""
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    a = x[..., bit_reverse_indices(n)]
    batch_shape = a.shape[:-1]
    m = 1
    while m < n:
        w = twiddles(2 * m, sign)[:m]
        a = a.reshape(*batch_shape, n // (2 * m), 2, m)
        even = a[..., 0, :]
        odd = a[..., 1, :] * w
        a = np.concatenate([even + odd, even - odd], axis=-1)
        m *= 2
    return a.reshape(*batch_shape, n)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(got, want):
    n = want.shape[-1]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * max(n, 2) * np.abs(want).max())


class TestBitIdentityToSeedKernel:
    @pytest.mark.parametrize("n", [2, 4, 8, 64, 512, 4096])
    @pytest.mark.parametrize("sign", [-1, +1])
    def test_single_vector(self, n, sign, rng):
        x = _complex(rng, n)
        got = plan_for(n).execute(x, inverse=sign > 0)
        _close(got * (n if sign > 0 else 1), _seed_dit_core(x, sign))

    @pytest.mark.parametrize("shape", [(3, 64), (16, 256), (2, 5, 32)])
    def test_batched(self, shape, rng):
        x = _complex(rng, shape)
        got = fft(x)
        _close(got, _seed_dit_core(x, -1))
        rows = x.reshape(-1, shape[-1])
        np.testing.assert_array_equal(
            got.reshape(rows.shape), np.stack([fft(r) for r in rows])
        )

    def test_public_radix2_wrappers(self, rng):
        """The public one-shots at a power-of-two length are the plan."""
        x = _complex(rng, (7, 128))
        plan = plan_for(128)
        np.testing.assert_array_equal(fft(x), plan.execute(x))
        np.testing.assert_array_equal(ifft(x), plan.execute(x, inverse=True))
        _close(fft(x), _seed_dit_core(x, -1))
        _close(ifft(x) * 128, _seed_dit_core(x, +1))

    def test_repeated_calls_do_not_clobber_earlier_results(self, rng):
        # The engine pools scratch buffers per context; a returned array
        # must never alias a buffer a later same-size call writes into.
        x1, x2 = _complex(rng, (8, 64)), _complex(rng, (8, 64))
        y1 = fft(x1)
        snapshot = y1.copy()
        fft(x2)
        np.testing.assert_array_equal(y1, snapshot)


class TestTransposedVariants:
    @pytest.mark.parametrize("shape", [(1, 8), (5, 1), (12, 256), (40, 512)])
    def test_fft_t_is_transposed_fft(self, shape, rng):
        # (rows, n): the column entry point on the transposed rows is the
        # row transform, transposed.
        x2 = _complex(rng, shape)
        plan = plan_for(shape[-1])
        out = plan.execute_tt(x2.T)
        np.testing.assert_array_equal(out, plan.execute(x2).T)
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("shape", [(8, 1), (1, 5), (8, 2560), (512, 40)])
    def test_fft_tt_transforms_columns_in_place_of_layout(self, shape, rng):
        xt = _complex(rng, shape)
        out = plan_for(shape[0]).execute_tt(xt)
        np.testing.assert_array_equal(out, plan_for(shape[0]).execute(xt.T).T)
        assert out.shape == xt.shape
        _close(out.T, _seed_dit_core(xt.T, -1))

    def test_fft_tt_accepts_strided_column_slices(self, rng):
        # The fused SOI path hands the kernel views; panels slice
        # columns, so non-contiguous input must work unchanged.
        xt = _complex(rng, (64, 48))
        view = xt[:, 5:37]
        plan = plan_for(64)
        np.testing.assert_array_equal(plan.execute_tt(view), plan.execute(view.T).T)

    def test_input_never_modified(self, rng):
        xt = _complex(rng, (32, 9))  # 9 column transforms of length 32
        x2 = _complex(rng, (9, 32))  # 9 row transforms of length 32
        before_t, before_2 = xt.copy(), x2.copy()
        plan_for(32).execute_tt(xt)
        plan_for(32).execute(x2)
        np.testing.assert_array_equal(xt, before_t)
        np.testing.assert_array_equal(x2, before_2)


class TestStageTables:
    """The engine's per-pass tables: one DFT matrix per radix and a
    twiddle block for every pass after the first."""

    def test_tables_cover_all_stages(self):
        engine = GemmStockham(256, np.complex128)
        assert engine.radices == radix_schedule(256) == (16, 16)
        assert [f.shape for f in engine.matrices] == [(16, 16), (16, 16)]
        assert int(np.prod(engine.radices)) == 256

    def test_tables_are_cached_and_read_only(self):
        engine = GemmStockham(128, np.complex128)
        assert engine.twiddles[0] is None  # pass 0's twiddle is exactly 1
        for table in engine.matrices + engine.twiddles[1:]:
            assert not table.flags.writeable
        assert plan_for(128) is plan_for(128)  # one plan, one table set

    def test_clear_stage_cache(self):
        a = plan_for(64)
        clear_plan_cache()
        assert plan_for(64) is not a
