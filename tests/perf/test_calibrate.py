"""Tests for on-machine kernel-rate calibration."""

import pytest

from repro.perf import KernelRates, measure_kernel_rates


class TestMeasureKernelRates:
    @pytest.fixture(scope="class")
    def rates(self):
        return measure_kernel_rates(n=1 << 14, p=8, window="digits10", repeats=2)

    def test_positive_rates(self, rates):
        assert rates.fft_gflops > 0
        assert rates.conv_gflops > 0

    def test_records_parameters(self, rates):
        assert rates.n == 1 << 14
        assert rates.b == 44

    def test_conv_rate_competitive_with_fft(self, rates):
        """The structural claim behind Section 7.4: the regular tensor
        contraction sustains a flop rate at least comparable to the FFT
        (the paper measures 4x; real banded GEMMs vs pocketfft here,
        both counted in the paper's flop model)."""
        assert rates.conv_over_fft > 0.5

    def test_ratio_property(self, rates):
        assert rates.conv_over_fft == pytest.approx(
            rates.conv_gflops / rates.fft_gflops
        )
