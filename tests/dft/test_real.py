"""Tests for the real-input FFT (packed half-length algorithm)."""

import numpy as np
import pytest

from repro.dft import irfft, plan_for, rfft
from repro.dft.twiddle import twiddles


class TestRfft:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 100, 128, 1000, 1280])
    def test_matches_numpy(self, n, rng):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(rfft(x), np.fft.rfft(x), atol=1e-9 * n)

    def test_output_length(self):
        assert rfft(np.ones(16)).shape == (9,)

    def test_dc_and_nyquist_are_real(self, rng):
        y = rfft(rng.standard_normal(32))
        assert abs(y[0].imag) < 1e-12
        assert abs(y[-1].imag) < 1e-12

    def test_batched(self, rng):
        x = rng.standard_normal((3, 64))
        np.testing.assert_allclose(rfft(x), np.fft.rfft(x, axis=-1), atol=1e-9)

    @pytest.mark.parametrize("shape", [(2,), (6,), (1000,), (3, 1280), (8, 4096)])
    def test_even_lengths_keep_the_packed_expressions_bits(self, shape, rng):
        """The zero-copy pack and the out= untangle compute the textbook
        expressions' bits on finite input, an unaligned-offset view too."""
        base = rng.standard_normal(shape[:-1] + (shape[-1] + 1,))
        for x in (base[..., :-1].copy(), base[..., 1:]):
            half = x.shape[-1] // 2
            z = plan_for(half).execute(x[..., 0::2] + 1j * x[..., 1::2])
            zfull = np.concatenate([z, z[..., :1]], axis=-1)
            zrev = np.conj(zfull[..., ::-1])
            want = 0.5 * (zfull + zrev) + twiddles(2 * half, -1)[: half + 1] * (
                -0.5j * (zfull - zrev)
            )
            got = rfft(x)
            assert got.view(np.float64).tobytes() == want.view(np.float64).tobytes()

    def test_rejects_complex(self):
        with pytest.raises(TypeError, match="real"):
            rfft(np.zeros(8, dtype=complex))

    @pytest.mark.parametrize("n", [3, 9, 15, 27, 101, 255])
    def test_odd_lengths_match_numpy(self, n, rng):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(rfft(x), np.fft.rfft(x), atol=1e-9 * n)

    def test_odd_length_batched(self, rng):
        x = rng.standard_normal((3, 45))
        np.testing.assert_allclose(rfft(x), np.fft.rfft(x, axis=-1), atol=1e-9)

    def test_cosine_line(self):
        n, f = 64, 5
        x = np.cos(2 * np.pi * f * np.arange(n) / n)
        y = rfft(x)
        assert abs(y[f] - n / 2) < 1e-9


class TestIrfft:
    @pytest.mark.parametrize("n", [2, 8, 64, 100, 1000])
    def test_roundtrip(self, n, rng):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(irfft(rfft(x)), x, atol=1e-10)

    def test_matches_numpy(self, rng):
        spec = np.fft.rfft(rng.standard_normal(64))
        np.testing.assert_allclose(irfft(spec), np.fft.irfft(spec), atol=1e-11)

    def test_explicit_n(self, rng):
        x = rng.standard_normal(32)
        np.testing.assert_allclose(irfft(rfft(x), n=32), x, atol=1e-10)

    @pytest.mark.parametrize("n", [3, 9, 255, 1001])
    def test_odd_n_inverts_an_odd_rfft(self, n, rng):
        x = rng.standard_normal((2, n))
        spec = rfft(x)
        np.testing.assert_allclose(irfft(spec, n=n), x, atol=1e-10)
        np.testing.assert_allclose(
            irfft(spec, n=n), np.fft.irfft(spec, n=n), atol=1e-11
        )

    def test_inconsistent_n_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            irfft(np.zeros(9, dtype=complex), n=10)

    @pytest.mark.parametrize("n", [15, 18])
    def test_only_the_two_lengths_with_that_many_bins_accepted(self, n):
        # 9 bins come from a length-16 or a length-17 signal only.
        spec = np.zeros(9, dtype=complex)
        assert irfft(spec, n=16).shape == (16,) and irfft(spec, n=17).shape == (17,)
        with pytest.raises(ValueError, match="inconsistent"):
            irfft(spec, n=n)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError):
            irfft(np.zeros(1, dtype=complex))

    def test_output_is_real_dtype(self, rng):
        assert irfft(rfft(rng.standard_normal(16))).dtype == np.float64
