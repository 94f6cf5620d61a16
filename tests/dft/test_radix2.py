"""Power-of-two lengths through the one-shot :func:`repro.dft.fft` / ``ifft``."""

import numpy as np
import pytest

from repro.dft import dft, fft, ifft


class TestFftRadix2:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 256, 4096])
    def test_matches_numpy(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-10 * max(n, 1))

    def test_matches_naive_dft(self, rng):
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        np.testing.assert_allclose(fft(x), dft(x), atol=1e-10)

    def test_batched_2d(self, rng):
        x = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        np.testing.assert_allclose(fft(x), np.fft.fft(x, axis=-1), atol=1e-10)

    def test_batched_3d(self, rng):
        x = rng.standard_normal((3, 4, 16)) + 1j * rng.standard_normal((3, 4, 16))
        np.testing.assert_allclose(fft(x), np.fft.fft(x, axis=-1), atol=1e-10)

    def test_batch_rows_are_independent(self, rng):
        x = rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32))
        full = fft(x)
        np.testing.assert_array_equal(full[0], fft(x[0]))
        np.testing.assert_array_equal(full[1], fft(x[1]))

    def test_input_not_modified(self, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        copy = x.copy()
        fft(x)
        np.testing.assert_array_equal(x, copy)

    def test_real_input_promoted(self):
        x = np.ones(8)
        y = fft(x)
        assert y.dtype == np.complex128
        assert abs(y[0] - 8) < 1e-12

    def test_length_one_is_identity(self):
        np.testing.assert_array_equal(fft(np.array([3 + 4j])), [3 + 4j])


class TestIfftRadix2:
    @pytest.mark.parametrize("n", [1, 2, 8, 128])
    def test_roundtrip(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(ifft(fft(x)), x, atol=1e-11)

    def test_matches_numpy(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(ifft(x), np.fft.ifft(x), atol=1e-12)


class TestParseval:
    """Energy conservation |y|^2 = n |x|^2 — a global numerical check."""

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_energy(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = fft(x)
        assert np.sum(np.abs(y) ** 2) == pytest.approx(n * np.sum(np.abs(x) ** 2), rel=1e-12)
