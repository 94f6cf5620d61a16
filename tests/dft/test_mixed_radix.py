"""Smooth composite lengths through the one-shot :func:`repro.dft.fft` / ``ifft``."""

import numpy as np
import pytest

from repro.dft import fft, ifft


class TestFftMixedRadix:
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 5, 6, 9, 12, 15, 30, 36, 60, 100, 120, 640, 1280, 1000]
    )
    def test_matches_numpy(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(
            fft(x), np.fft.fft(x), atol=1e-9 * max(n, 1)
        )

    def test_soi_oversampled_size(self, rng):
        """M' = 5*M/4 with M a power of two is the size SOI leans on."""
        n = 5 * 1024 // 4 * 4  # 5120... keep it explicit:
        n = 5 * 256
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-9 * n)

    @pytest.mark.parametrize("n", [6, 15, 160])
    def test_inverse_roundtrip(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(
            ifft(fft(x)), x, atol=1e-10
        )

    def test_inverse_matches_numpy(self, rng):
        x = rng.standard_normal(90) + 1j * rng.standard_normal(90)
        np.testing.assert_allclose(
            ifft(x), np.fft.ifft(x), atol=1e-12
        )

    def test_batched(self, rng):
        x = rng.standard_normal((4, 48)) + 1j * rng.standard_normal((4, 48))
        np.testing.assert_allclose(
            fft(x), np.fft.fft(x, axis=-1), atol=1e-10
        )

    def test_large_prime_delegates_to_bluestein(self, rng):
        x = rng.standard_normal(127) + 1j * rng.standard_normal(127)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-9)

    def test_composite_with_large_prime_factor(self, rng):
        n = 4 * 101
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-9 * n)

    def test_linearity(self, rng):
        n = 60
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = fft(2.0 * x + 3j * y)
        rhs = 2.0 * fft(x) + 3j * fft(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fft(np.zeros(0))

    def test_time_shift_theorem(self, rng):
        """x rolled by s => spectrum times exp(-2 pi i s k / n)."""
        n, s = 48, 7
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = fft(np.roll(x, s))
        phase = np.exp(-2j * np.pi * s * np.arange(n) / n)
        np.testing.assert_allclose(y, fft(x) * phase, atol=1e-10)
