"""Tests for flop accounting (the paper's GFLOPS metric)."""

import math

import pytest

from repro.dft.flops import (
    fft_flops,
    soi_convolution_flops,
    soi_total_flops,
)


class TestFftFlops:
    def test_formula(self):
        assert fft_flops(1024) == 5 * 1024 * 10

    def test_length_one_is_zero(self):
        assert fft_flops(1) == 0.0

    def test_monotone(self):
        assert fft_flops(2048) > fft_flops(1024)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fft_flops(0)


class TestSoiFlops:
    def test_convolution_formula(self):
        assert soi_convolution_flops(1000, 72) == 8.0 * 1000 * 72

    def test_total_combines_terms(self):
        n, beta, b = 1 << 20, 0.25, 72
        n_over = int(n * 1.25)
        expected = fft_flops(n_over) + soi_convolution_flops(n_over, b)
        assert soi_total_flops(n, beta, b) == expected

    def test_paper_ratio_conv_to_fft_about_four(self):
        """Section 7.4: at 2^28 points and B=72, convolution arithmetic is
        'almost fourfold that of a regular FFT'."""
        n = 1 << 28
        n_over = int(n * 1.25)
        ratio = soi_convolution_flops(n_over, 72) / fft_flops(n_over)
        assert 3.5 < ratio < 4.5

    def test_soi_about_fivefold_total(self):
        """Section 7.4: 'SOI is about fivefold as expensive in terms of
        arithmetic operations count' (vs the regular FFT)."""
        n = 1 << 28
        ratio = soi_total_flops(n, 0.25, 72) / fft_flops(n)
        assert 4.5 < ratio < 6.5

    def test_validation(self):
        with pytest.raises(ValueError):
            soi_convolution_flops(0, 72)
        with pytest.raises(ValueError):
            soi_convolution_flops(100, 0)
