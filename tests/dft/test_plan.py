"""Tests for FftPlan dispatch, caching and accounting."""

import numpy as np
import pytest

from repro.dft import FftPlan, fft, ifft


class TestKernelDispatch:
    def test_power_of_two_uses_radix2(self):
        assert FftPlan(1024).kernel == "radix2"

    def test_length_one_uses_radix2(self):
        assert FftPlan(1).kernel == "radix2"

    def test_smooth_composite_uses_mixed_radix(self):
        assert FftPlan(1280).kernel == "mixed_radix"  # 2^8 * 5

    def test_large_prime_uses_bluestein(self):
        assert FftPlan(10007).kernel == "bluestein"

    def test_composite_with_large_prime_uses_bluestein(self):
        # 4 * 9973: the large prime factor forces the chirp-z path.
        assert FftPlan(4 * 9973).kernel == "bluestein"


class TestExecution:
    @pytest.mark.parametrize("n", [8, 60, 97, 1280])
    def test_forward_matches_numpy(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(FftPlan(n).execute(x), np.fft.fft(x), atol=1e-9 * n)

    @pytest.mark.parametrize("n", [8, 60, 97])
    def test_inverse_matches_numpy(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(
            FftPlan(n).execute(x, inverse=True), np.fft.ifft(x), atol=1e-11
        )

    def test_default_direction_from_constructor(self, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        plan = FftPlan(16, inverse=True)
        np.testing.assert_allclose(plan.execute(x), np.fft.ifft(x), atol=1e-12)

    def test_per_call_override_wins(self, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        plan = FftPlan(16, inverse=True)
        np.testing.assert_allclose(plan.execute(x, inverse=False), np.fft.fft(x), atol=1e-11)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length 16"):
            FftPlan(16).execute(np.zeros(8))

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            FftPlan(0)

    def test_zero_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(\)"):
            fft(np.float64(3.0))
        with pytest.raises(ValueError, match=r"shape \(\)"):
            ifft(3.0)
        with pytest.raises(ValueError, match=r"shape \(\)"):
            FftPlan(1).execute(np.float64(3.0))


class TestAccounting:
    def test_execution_counter(self, rng):
        plan = FftPlan(8)
        plan.execute(rng.standard_normal(8))
        plan.execute(rng.standard_normal((3, 8)))
        assert plan.executions == 4  # 1 + 3 batch rows

    @pytest.mark.parametrize("n", [8, 1280, 97])
    def test_empty_batch_counts_nothing(self, n):
        plan = FftPlan(n)
        out = plan.execute(np.zeros((0, n)))
        assert out.shape == (0, n) and out.dtype == np.complex128
        assert plan.executions == 0


class TestOneShotHelpers:
    def test_fft_helper(self, rng):
        x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-10)

    def test_ifft_helper(self, rng):
        x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        np.testing.assert_allclose(ifft(x), np.fft.ifft(x), atol=1e-12)

    def test_roundtrip(self, rng):
        x = rng.standard_normal(31) + 1j * rng.standard_normal(31)
        np.testing.assert_allclose(ifft(fft(x)), x, atol=1e-10)
