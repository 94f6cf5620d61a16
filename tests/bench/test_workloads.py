"""Tests for workload generators."""

import numpy as np
import pytest

from repro.bench.workloads import (
    chirp_signal,
    multitone,
    noisy_tones,
    random_complex,
)


class TestRandom:
    def test_deterministic_by_seed(self):
        np.testing.assert_array_equal(random_complex(64, 1), random_complex(64, 1))

    def test_different_seeds_differ(self):
        assert not np.array_equal(random_complex(64, 1), random_complex(64, 2))

    def test_complex_has_both_parts(self):
        x = random_complex(1000, 3)
        assert np.std(x.real) > 0.5 and np.std(x.imag) > 0.5


class TestMultitone:
    def test_spectrum_is_exact_lines(self):
        x = multitone(64, [3, 10], [2.0, 0.5])
        y = np.fft.fft(x)
        assert y[3] == pytest.approx(2.0 * 64)
        assert y[10] == pytest.approx(0.5 * 64)
        mask = np.ones(64, bool)
        mask[[3, 10]] = False
        assert np.max(np.abs(y[mask])) < 1e-10

    def test_negative_frequency_wraps(self):
        x = multitone(32, [-1])
        y = np.fft.fft(x)
        assert abs(y[31]) == pytest.approx(32.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multitone(32, [1, 2], [1.0])


class TestChirp:
    def test_unit_modulus(self):
        x = chirp_signal(256)
        np.testing.assert_allclose(np.abs(x), 1.0, atol=1e-12)

    def test_broadband(self):
        """A chirp spreads energy over many bins (not a line spectrum)."""
        y = np.abs(np.fft.fft(chirp_signal(512)))
        occupied = np.sum(y > 0.1 * y.max())
        assert occupied > 50


class TestNoisyTones:
    def test_snr_calibration(self):
        x = noisy_tones(4096, [100], snr_db=20.0, seed=1)
        sig = multitone(4096, [100])
        noise = x - sig
        measured = 10 * np.log10(np.mean(np.abs(sig) ** 2) / np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(20.0, abs=1.0)

    def test_tone_detectable(self):
        x = noisy_tones(1024, [50], snr_db=30.0, seed=2)
        y = np.abs(np.fft.fft(x))
        assert y.argmax() == 50
