"""Tests for SNR / digit metrics and the error budget."""

import math

import numpy as np
import pytest

from repro.core import SoiPlan, soi_fft
from repro.core.accuracy import (
    error_budget,
    parseval_check,
    relative_l2_error,
    snr_db,
)
from repro.core.windows import TauSigmaWindow


class TestSnrDb:
    def test_exact_match_is_inf(self):
        x = np.array([1.0, 2.0, 3.0])
        assert snr_db(x, x) == math.inf

    def test_known_ratio(self):
        ref = np.array([1.0, 0.0])
        got = np.array([1.0, 0.01])
        assert snr_db(got, ref) == pytest.approx(40.0)

    def test_20db_per_digit(self):
        ref = np.ones(100, dtype=complex)
        got = ref + 1e-6  # 6 digits
        assert snr_db(got, ref) == pytest.approx(120.0, abs=0.5)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            snr_db(np.ones(3), np.ones(4))

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            snr_db(np.ones(3), np.zeros(3))


class TestRelativeL2:
    def test_zero_for_match(self):
        x = np.arange(5, dtype=float)
        assert relative_l2_error(x, x) == 0.0

    def test_known_value(self):
        assert relative_l2_error(np.array([1.1]), np.array([1.0])) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_l2_error(np.ones(2), np.zeros(2))


class TestErrorBudget:
    def test_budget_fields(self, full_plan):
        budget = error_budget(full_plan)
        for key in ("kappa", "eps_fft", "eps_alias", "eps_trunc", "modelled_digits"):
            assert key in budget

    def test_budget_predicts_at_most_measured(self, full_plan):
        """The budget is a worst-case bound: measured accuracy must be
        at least as good (checked against the known 288 dB from
        test_soi)."""
        budget = error_budget(full_plan)
        assert budget["modelled_digits"] <= 15.0
        assert budget["modelled_digits"] >= 10.0

    def test_budget_needs_design(self):
        plan = SoiPlan(n=1024, p=4, window=TauSigmaWindow(0.7, 100.0), b=24)
        with pytest.raises(ValueError, match="bare window"):
            error_budget(plan)

    def test_snr_consistency(self, full_plan):
        budget = error_budget(full_plan)
        assert budget["modelled_snr_db"] == pytest.approx(
            20.0 * budget["modelled_digits"]
        )


class TestParsevalCheck:
    """The output screen that survives ``verify=``: a pure post-condition."""

    def _pair(self, plan, seed=0):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal(plan.n) + 1j * gen.standard_normal(plan.n)
        return x, soi_fft(x, plan)

    def test_honest_output_passes(self, full_plan):
        assert parseval_check(*self._pair(full_plan), full_plan)

    def test_one_flipped_exponent_bit_fails(self, full_plan):
        x, y = self._pair(full_plan)
        bad = y.copy()
        bad.view(np.uint64)[0] ^= np.uint64(1 << 54)
        assert not parseval_check(x, bad, full_plan)

    def test_non_finite_output_fails(self, full_plan):
        x, y = self._pair(full_plan)
        y[3] = np.nan
        assert not parseval_check(x, y, full_plan)

    def test_zero_input_needs_zero_output(self, full_plan):
        zeros = np.zeros(full_plan.n, dtype=complex)
        assert parseval_check(zeros, zeros, full_plan)
        assert not parseval_check(zeros, zeros + 1e-3, full_plan)

    def test_bare_window_plan_is_screened_without_a_budget(self):
        plan = SoiPlan(n=1024, p=4, window=TauSigmaWindow(0.7, 100.0), b=24)
        x, y = self._pair(plan)
        assert not parseval_check(x, 2.0 * y, plan)
