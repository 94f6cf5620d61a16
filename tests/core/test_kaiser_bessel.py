"""Tests for the Kaiser-Bessel compact-support window (Section 8 class)."""

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.core import SoiPlan, snr_db, soi_fft
from repro.core.windows import KaiserBesselWindow

KB = KaiserBesselWindow(alpha=30.0, half_width=0.75)


class TestFrequencyProfile:
    def test_compact_support(self):
        """Exactly zero outside |u| <= half_width — the Section-8 class
        that 'can eliminate aliasing error completely'."""
        u = np.array([0.7501, 1.0, 5.0, -0.76])
        np.testing.assert_array_equal(KB.h_hat(u), 0.0)

    def test_positive_inside(self):
        u = np.linspace(-0.74, 0.74, 101)
        assert np.all(KB.h_hat(u) > 0)

    def test_normalised_peak(self):
        assert KB.h_hat(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_even(self):
        u = np.linspace(0, 0.74, 40)
        np.testing.assert_allclose(KB.h_hat(u), KB.h_hat(-u), rtol=1e-13)


class TestFourierPair:
    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 5.0, 9.3])
    def test_closed_form_matches_quadrature(self, t):
        u = np.linspace(-0.76, 0.76, 12801)
        du = u[1] - u[0]
        integral = float(np.sum(KB.h_hat(u) * np.cos(2 * np.pi * u * t)) * du)
        closed = float(KB.h_time(np.array([t]))[0])
        assert closed == pytest.approx(integral, abs=1e-7)

    def test_branch_continuity(self):
        """sinh/sqrt and sin/sqrt branches must join smoothly at z=alpha."""
        t_star = KB.alpha / (2 * np.pi * KB.half_width)
        eps = 1e-6
        left = float(KB.h_time(np.array([t_star - eps]))[0])
        right = float(KB.h_time(np.array([t_star + eps]))[0])
        assert left == pytest.approx(right, rel=1e-4)


class TestDesignMetrics:
    """What the design metrics would read, taken off the profile itself."""

    def test_zero_alias_when_support_fits(self):
        # The whole stop band |u| >= 1/2 + beta is outside the support.
        u = 0.75 + np.linspace(0.0, 4.0, 401)
        np.testing.assert_array_equal(KB.h_hat(u), 0.0)
        np.testing.assert_array_equal(KB.h_hat(-u), 0.0)

    def test_nonzero_alias_when_support_exceeds(self):
        wide = KaiserBesselWindow(alpha=30.0, half_width=0.9)
        assert wide.h_hat(np.array([0.75]))[0] > 0.0

    def test_kappa_grows_with_alpha(self):
        """kappa = H_hat(0) / H_hat(1/2): the profile falls monotonically
        in |u|, so the pass-band extremes are the centre and the edge."""

        def kappa(win):
            centre, edge = win.h_hat(np.array([0.0, 0.5]))
            return centre / edge

        k1 = kappa(KaiserBesselWindow(10.0, 0.75))
        k2 = kappa(KaiserBesselWindow(30.0, 0.75))
        assert k2 > k1 > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            KaiserBesselWindow(0.0, 0.75)
        with pytest.raises(ValueError):
            KaiserBesselWindow(10.0, 0.4)


class TestKbInSoi:
    def test_end_to_end_accuracy(self):
        plan = SoiPlan(n=4096, p=4, window=KB, b=40)
        x = random_complex(4096, 70)
        assert snr_db(soi_fft(x, plan), np.fft.fft(x)) > 170.0

    def test_moderate_alpha_balances_kappa(self):
        """Lower alpha trades time-decay (hence accuracy) for a tamer
        kappa; the slow 1/t tail makes truncation the limiting term, so
        the achievable digits track alpha."""
        kb = KaiserBesselWindow(alpha=18.0, half_width=0.75)
        plan = SoiPlan(n=4096, p=4, window=kb, b=24)
        x = random_complex(4096, 71)
        assert snr_db(soi_fft(x, plan), np.fft.fft(x)) > 110.0

    def test_accuracy_grows_with_alpha(self):
        x = random_complex(4096, 72)
        snrs = []
        for alpha in (16.0, 24.0, 30.0):
            kb = KaiserBesselWindow(alpha=alpha, half_width=0.75)
            plan = SoiPlan(n=4096, p=4, window=kb, b=40)
            snrs.append(snr_db(soi_fft(x, plan), np.fft.fft(x)))
        assert snrs == sorted(snrs)
