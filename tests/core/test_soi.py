"""Tests for the sequential SOI FFT — the paper's headline algorithm."""

import numpy as np
import pytest

from repro.bench.workloads import chirp_signal, multitone, random_complex
from repro.core import SoiPlan, snr_db, soi_fft, soi_fft2, soi_ifft, soi_segment
from repro.core.soi import soi_convolve


class TestSoiFftAccuracy:
    def test_full_accuracy_snr_matches_paper(self, full_plan):
        """Section 7.2: double-precision SOI ~ 290 dB (one digit below
        the ~310 dB of standard FFTs)."""
        x = random_complex(full_plan.n, 1)
        s = snr_db(soi_fft(x, full_plan), np.fft.fft(x))
        assert s > 280.0

    def test_standard_fft_is_about_20db_better(self, full_plan):
        x = random_complex(full_plan.n, 2)
        soi_snr = snr_db(soi_fft(x, full_plan), np.fft.fft(x))
        # numpy vs higher-precision reference
        ref256 = np.fft.fft(x.astype(np.complex256))
        np_snr = snr_db(np.fft.fft(x), ref256)
        assert 10.0 < np_snr - soi_snr < 45.0

    @pytest.mark.parametrize("preset,min_digits", [("digits10", 9.0), ("digits6", 5.0)])
    def test_reduced_accuracy_presets(self, preset, min_digits):
        plan = SoiPlan(n=4096, p=8, window=preset)
        x = random_complex(4096, 3)
        s = snr_db(soi_fft(x, plan), np.fft.fft(x))
        assert s / 20.0 > min_digits

    def test_accuracy_ladder_is_monotone(self):
        """Fig. 7's dial: better presets give better measured SNR."""
        x = random_complex(4096, 4)
        snrs = []
        for preset in ["digits6", "digits10", "digits13", "full"]:
            plan = SoiPlan(n=4096, p=8, window=preset)
            snrs.append(snr_db(soi_fft(x, plan), np.fft.fft(x)))
        assert snrs == sorted(snrs)

    def test_multitone_exact_lines(self, full_plan):
        """Pure tones: SOI must reproduce the line spectrum with tiny
        leakage onto the exactly-zero background."""
        x = multitone(full_plan.n, [3, 100, 1000, 4000], [1.0, 2.0, 0.5, 1.5])
        y = soi_fft(x, full_plan)
        ref = np.fft.fft(x)
        assert np.max(np.abs(y - ref)) / np.max(np.abs(ref)) < 1e-12

    def test_chirp_broadband(self, full_plan):
        x = chirp_signal(full_plan.n)
        assert snr_db(soi_fft(x, full_plan), np.fft.fft(x)) > 270.0

    def test_real_input(self, full_plan):
        x = np.asarray(random_complex(full_plan.n, 5).real, dtype=complex)
        assert snr_db(soi_fft(x, full_plan), np.fft.fft(x)) > 280.0

    def test_various_shapes(self):
        """Different (N, P) splits, including P=1 (a single segment)."""
        for n, p, preset in [(1024, 1, "digits6"), (2048, 2, "digits8"), (8192, 32, "digits8")]:
            plan = SoiPlan(n=n, p=p, window=preset)
            x = random_complex(n, n)
            s = snr_db(soi_fft(x, plan), np.fft.fft(x))
            assert s / 20.0 > 4.5, (n, p, s)

    def test_beta_half(self):
        plan = SoiPlan(n=4096, p=8, beta=0.5, window="digits10")
        x = random_complex(4096, 6)
        assert snr_db(soi_fft(x, plan), np.fft.fft(x)) > 190.0


class TestSoiFftInterface:
    def test_wrong_length_rejected(self, full_plan):
        with pytest.raises(ValueError, match="4096"):
            soi_fft(np.zeros(100, dtype=complex), full_plan)

    def test_zero_dimensional_input_rejected(self, full_plan):
        # Not "last axis has 1 points": a 0-d value has no axis at all.
        with pytest.raises(ValueError, match=r"shape \(\) .*at least one axis"):
            soi_fft(np.complex128(1), full_plan)

    @pytest.mark.parametrize("backend", ["bogus", 3])
    def test_unknown_backend_rejected(self, full_plan, backend):
        from repro.dft.backends import UnknownBackendError

        x = random_complex(full_plan.n, 7)
        if isinstance(backend, str):
            with pytest.raises(UnknownBackendError, match="backend='bogus'.*numpy"):
                soi_fft(x, full_plan, backend=backend)
        else:
            with pytest.raises(TypeError, match="backend"):
                soi_fft(x, full_plan, backend=backend)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda x, plan: soi_fft(x, plan),
            lambda x, plan: soi_ifft(x, plan),
            lambda x, plan: soi_convolve(x, plan),
            lambda x, plan: soi_segment(x, plan, 0),
            lambda x, plan: soi_fft2(x.reshape(64, 64), plan),
        ],
        ids=["soi_fft", "soi_ifft", "soi_convolve", "soi_segment", "soi_fft2"],
    )
    @pytest.mark.parametrize("plan", [None, 3, "dft-plan"])
    def test_non_soi_plan_rejected(self, entry, plan):
        if plan == "dft-plan":
            from repro.dft import plan_for

            plan = plan_for(4096)
        with pytest.raises(TypeError, match="plan"):
            entry(random_complex(4096, 7), plan)

    def test_output_shape_and_dtype(self, full_plan):
        y = soi_fft(random_complex(full_plan.n, 7), full_plan)
        assert y.shape == (full_plan.n,)
        assert y.dtype == np.complex128

    def test_backends_agree(self, full_plan):
        x = random_complex(full_plan.n, 8)
        a = soi_fft(x, full_plan, backend="numpy")
        b = soi_fft(x, full_plan, backend="repro")
        assert snr_db(b, a) > 250.0

    def test_linearity(self, full_plan):
        x1, x2 = random_complex(full_plan.n, 9), random_complex(full_plan.n, 10)
        lhs = soi_fft(2.0 * x1 + 1j * x2, full_plan)
        rhs = 2.0 * soi_fft(x1, full_plan) + 1j * soi_fft(x2, full_plan)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))

    def test_deterministic(self, full_plan):
        x = random_complex(full_plan.n, 11)
        np.testing.assert_array_equal(soi_fft(x, full_plan), soi_fft(x, full_plan))


class TestSoiConvolve:
    def test_output_shape(self, full_plan):
        z = soi_convolve(random_complex(full_plan.n, 12), full_plan)
        assert z.shape == (full_plan.m_over, full_plan.p)

    def test_row_period_structure(self, small_plan):
        """Rows repeat with period mu under a nu*P input rotation —
        the Fig. 4 block-shift structure."""
        plan = small_plan
        x = random_complex(plan.n, 13)
        z1 = soi_convolve(x, plan)
        z2 = soi_convolve(np.roll(x, -plan.nu * plan.p), plan)
        # Shifting the input back by nu*P advances the chunk index by 1:
        np.testing.assert_allclose(
            z1[plan.mu :, :], z2[: -plan.mu, :], atol=1e-12
        )

    def test_convolution_cost_is_nprime_b(self, small_plan):
        """Structural: the einsum contracts exactly mu*B*P coefficients
        over M/nu chunks = N' * B multiply-adds."""
        plan = small_plan
        assert plan.coeffs.size * plan.q_chunks == plan.n_over * plan.b


class TestSoiSegment:
    def test_matches_full_transform_segments(self, full_plan):
        x = random_complex(full_plan.n, 15)
        y = soi_fft(x, full_plan)
        for s in [0, 3, full_plan.p - 1]:
            seg = soi_segment(x, full_plan, s)
            ref = y[full_plan.segment_slice(s)]
            assert snr_db(seg, ref) > 250.0

    def test_matches_numpy_segment(self, full_plan):
        x = random_complex(full_plan.n, 16)
        ref = np.fft.fft(x)
        seg = soi_segment(x, full_plan, 5)
        assert snr_db(seg, ref[full_plan.segment_slice(5)]) > 280.0

    def test_segment_zero_needs_no_modulation(self, full_plan):
        """Phi_0 = I: segment 0 equals the unmodulated pipeline head."""
        x = random_complex(full_plan.n, 17)
        seg = soi_segment(x, full_plan, 0)
        ref = np.fft.fft(x)[: full_plan.m]
        assert snr_db(seg, ref) > 280.0

    def test_out_of_range_segment(self, full_plan):
        with pytest.raises(IndexError):
            soi_segment(random_complex(full_plan.n, 18), full_plan, full_plan.p)

    def test_wrong_length(self, full_plan):
        with pytest.raises(ValueError):
            soi_segment(np.zeros(10, dtype=complex), full_plan, 0)

    @pytest.mark.parametrize("entry", ["soi_segment", "segment_phase", "segment_slice"])
    @pytest.mark.parametrize("s", [1.5, 1.0, np.float64(1.0), True, np.True_, "1", None])
    def test_non_integer_segment_rejected(self, full_plan, entry, s):
        x = random_complex(full_plan.n, 19)
        call = {
            "soi_segment": lambda: soi_segment(x, full_plan, s),
            "segment_phase": lambda: full_plan.segment_phase(s),
            "segment_slice": lambda: full_plan.segment_slice(s),
        }[entry]
        with pytest.raises(TypeError, match="segment must be an integer"):
            call()

    def test_numpy_integer_segment_accepted(self, full_plan):
        x = random_complex(full_plan.n, 20)
        s = np.int64(3)
        np.testing.assert_array_equal(
            soi_segment(x, full_plan, s), soi_segment(x, full_plan, 3)
        )
        assert full_plan.segment_phase(s) is full_plan.segment_phase(3)
        assert full_plan.segment_slice(s) == full_plan.segment_slice(3)
        assert type(full_plan.segment_slice(s).start) is int
