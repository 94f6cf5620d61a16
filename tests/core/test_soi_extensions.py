"""Tests for the SOI extensions: inverse, batched, and 2-D transforms."""

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.core import SoiPlan, snr_db, soi_fft, soi_fft2, soi_ifft


@pytest.fixture(scope="module")
def plan10():
    return SoiPlan(n=1024, p=4, window="digits10")


class TestSoiIfft:
    def test_matches_numpy_ifft(self, full_plan):
        x = random_complex(full_plan.n, 31)
        assert snr_db(soi_ifft(x, full_plan), np.fft.ifft(x)) > 280.0

    def test_roundtrip(self, full_plan):
        x = random_complex(full_plan.n, 32)
        assert snr_db(soi_ifft(soi_fft(x, full_plan), full_plan), x) > 275.0

    def test_scaling_convention(self, plan10):
        """ifft(fft(delta)) recovers the delta with 1/N scaling."""
        x = np.zeros(plan10.n, dtype=complex)
        x[7] = 1.0
        out = soi_ifft(soi_fft(x, plan10), plan10)
        assert abs(out[7] - 1.0) < 1e-9
        assert np.max(np.abs(np.delete(out, 7))) < 1e-9

    def test_accuracy_follows_window(self, plan10):
        x = random_complex(plan10.n, 33)
        s = snr_db(soi_ifft(x, plan10), np.fft.ifft(x))
        assert 180.0 < s


class TestBatchedSoi:
    def test_matches_per_row(self, plan10):
        xb = np.stack([random_complex(plan10.n, 40 + i) for i in range(3)])
        full = soi_fft(xb, plan10)
        for i in range(3):
            np.testing.assert_array_equal(full[i], soi_fft(xb[i], plan10))

    def test_3d_batch(self, plan10):
        xb = random_complex(4 * plan10.n, 44).reshape(2, 2, plan10.n)
        out = soi_fft(xb, plan10)
        assert out.shape == (2, 2, plan10.n)
        np.testing.assert_array_equal(out[1, 0], soi_fft(xb[1, 0], plan10))

    def test_batched_accuracy(self, plan10):
        xb = np.stack([random_complex(plan10.n, 50 + i) for i in range(4)])
        assert snr_db(soi_fft(xb, plan10), np.fft.fft(xb, axis=-1)) > 190.0

    def test_wrong_last_axis(self, plan10):
        with pytest.raises(ValueError, match="last axis"):
            soi_fft(np.zeros((3, 100), dtype=complex), plan10)


class TestSoiFft2:
    def test_square_matches_numpy(self, plan10):
        x = random_complex(plan10.n * plan10.n, 60).reshape(plan10.n, plan10.n)
        assert snr_db(soi_fft2(x, plan10), np.fft.fft2(x)) > 185.0

    def test_rectangular(self):
        pr = SoiPlan(n=1024, p=4, window="digits8")
        pc = SoiPlan(n=512, p=4, window="digits8")
        x = random_complex(512 * 1024, 61).reshape(512, 1024)
        assert snr_db(soi_fft2(x, pr, pc), np.fft.fft2(x)) > 150.0

    def test_separable_structure(self, plan10):
        """fft2 of an outer product is the outer product of ffts."""
        u = random_complex(plan10.n, 62)
        v = random_complex(plan10.n, 63)
        x = np.outer(u, v)
        y = soi_fft2(x, plan10)
        ref = np.outer(np.fft.fft(u), np.fft.fft(v))
        assert snr_db(y, ref) > 185.0

    def test_shape_validation(self, plan10):
        with pytest.raises(ValueError, match="expected shape"):
            soi_fft2(np.zeros((10, plan10.n), dtype=complex), plan10)

    def test_single_precision_pair_stays_single(self, rng):
        """A complex64 pair converts the input to complex64 (no
        complex128 temporary) and returns complex64, bitwise the two
        1-D passes."""
        plan = SoiPlan(n=1024, p=4, window="digits6", dtype=np.complex64)
        x = (rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024)))
        y = soi_fft2(x, plan)
        assert y.dtype == np.complex64
        rows = soi_fft(x.astype(np.complex64), plan)
        assert np.array_equal(y, soi_fft(np.ascontiguousarray(rows.T), plan).T)
        assert snr_db(y, np.fft.fft2(x)) > 90.0   # 98 dB measured: digits6 at float32

    def test_mixed_precision_pair_rejected(self):
        rows = SoiPlan(n=1024, p=4, window="digits6", dtype=np.complex64)
        cols = SoiPlan(n=1024, p=4, window="digits6")
        x = np.zeros((1024, 1024), dtype=np.complex64)
        with pytest.raises(ValueError, match="plan_cols"):
            soi_fft2(x, rows, cols)
        with pytest.raises(ValueError, match="plan_cols"):
            soi_fft2(x, cols, rows)
