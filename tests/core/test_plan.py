"""Tests for SoiPlan construction, validation and invariants."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import SoiPlan, clear_soi_plan_cache, design_window, soi_plan_cache_info, soi_plan_for
from repro.core.design import UnknownWindowError
from repro.core.windows import TauSigmaWindow


class TestDerivedSizes:
    def test_quarter_oversampling(self, full_plan):
        assert (full_plan.mu, full_plan.nu) == (5, 4)
        assert full_plan.m == 512
        assert full_plan.m_over == 640
        assert full_plan.n_over == 5120

    def test_q_chunks(self, full_plan):
        assert full_plan.q_chunks == full_plan.m // full_plan.nu
        assert full_plan.q_chunks * full_plan.mu == full_plan.m_over

    def test_halo_formula(self, full_plan):
        assert full_plan.halo == (full_plan.b - full_plan.nu) * full_plan.p

    def test_beta_half(self):
        plan = SoiPlan(n=1024, p=4, beta=0.5, window="digits6")
        assert (plan.mu, plan.nu) == (3, 2)
        assert plan.m_over == 384

    def test_beta_as_fraction(self):
        plan = SoiPlan(n=1024, p=4, beta=Fraction(1, 2), window="digits6")
        assert plan.m_over == 384


class TestValidation:
    def test_p_must_divide_n(self):
        with pytest.raises(ValueError, match="must divide"):
            SoiPlan(n=100, p=3)

    def test_nu_must_divide_m(self):
        # M = 1026/2 = 513 odd, nu = 4.
        with pytest.raises(ValueError, match="divisible by nu"):
            SoiPlan(n=1026, p=2)

    def test_stencil_must_fit(self):
        # B*P > N for the full window at tiny N.
        with pytest.raises(ValueError, match="exceeds N"):
            SoiPlan(n=256, p=8, window="full")

    def test_bare_window_needs_b(self):
        with pytest.raises(ValueError, match="explicit b"):
            SoiPlan(n=1024, p=4, window=TauSigmaWindow(0.7, 100.0))

    def test_odd_b_rejected(self):
        with pytest.raises(ValueError, match="even"):
            SoiPlan(n=1024, p=4, window=TauSigmaWindow(0.7, 100.0), b=33)

    def test_b_below_nu_rejected(self):
        with pytest.raises(ValueError, match=">= nu"):
            SoiPlan(n=1024, p=4, window=TauSigmaWindow(0.7, 100.0), b=2)

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            SoiPlan(n=0, p=1)
        with pytest.raises((ValueError, TypeError)):
            SoiPlan(n=1024, p=-1)

    def test_garbage_window_rejected(self):
        with pytest.raises(TypeError):
            SoiPlan(n=1024, p=4, window=[1, 2, 3])

    @pytest.mark.parametrize("build", [SoiPlan, soi_plan_for], ids=["SoiPlan", "soi_plan_for"])
    @pytest.mark.parametrize(
        "beta", [True, False, "0.25", None], ids=["True", "False", "str", "None"]
    )
    def test_non_numeric_beta_rejected(self, build, beta):
        with pytest.raises(TypeError, match="beta"):
            build(n=1024, p=4, beta=beta, window="digits6")

    @pytest.mark.parametrize("build", [SoiPlan, soi_plan_for], ids=["SoiPlan", "soi_plan_for"])
    @pytest.mark.parametrize("beta", [float("inf"), -float("inf"), float("nan"), np.float64("nan")],
                             ids=["inf", "-inf", "nan", "np.nan"])
    def test_non_finite_beta_rejected(self, build, beta):
        with pytest.raises(ValueError, match="beta"):
            build(n=1024, p=4, beta=beta, window="digits6")

    @pytest.mark.parametrize(
        "beta", [0.5, Fraction(1, 2), np.float64(0.5)], ids=["float", "Fraction", "np.float64"]
    )
    def test_numeric_beta_accepted(self, beta):
        assert SoiPlan(n=1024, p=4, beta=beta, window="digits6").mu == 3
        assert soi_plan_for(1024, 4, beta=beta, window="digits6").mu == 3

    def test_unknown_window_preset_rejected(self):
        with pytest.raises(ValueError, match=r"window='bogus'.*digits10.*full") as info:
            SoiPlan(n=4096, p=16, window="bogus")
        assert isinstance(info.value, KeyError)
        assert isinstance(info.value, UnknownWindowError)
        with pytest.raises(KeyError, match="window='bogus'"):
            soi_plan_for(4096, 16, window="bogus")


class TestWindowResolution:
    def test_preset_string(self):
        plan = SoiPlan(n=2048, p=4, window="digits10")
        assert plan.b == 44
        assert plan.design is not None

    def test_float_target(self):
        plan = SoiPlan(n=2048, p=4, window=9.0)
        assert plan.design is not None
        assert plan.design.predicted_digits >= 8.5

    def test_int_target_is_the_float_target(self):
        as_int = SoiPlan(n=2048, p=4, window=9)
        as_float = SoiPlan(n=2048, p=4, window=9.0)
        assert as_int.b == as_float.b
        assert as_int.design == as_float.design

    def test_int_target_shares_the_float_targets_cache_entry(self):
        clear_soi_plan_cache()
        plan = soi_plan_for(2048, 4, window=9)
        assert soi_plan_for(2048, 4, window=9.0) is plan
        assert soi_plan_cache_info()["entries"] == 1
        assert plan.b == SoiPlan(n=2048, p=4, window=9.0).b

    def test_bool_target_rejected(self):
        with pytest.raises(TypeError, match="window spec"):
            SoiPlan(n=2048, p=4, window=True)
        with pytest.raises(TypeError, match="window spec"):
            soi_plan_for(2048, 4, window=True)

    def test_design_object(self):
        des = design_window(8.0)
        plan = SoiPlan(n=2048, p=4, window=des)
        assert plan.design is des
        assert plan.b == des.b

    def test_bare_window_with_b(self):
        plan = SoiPlan(n=2048, p=4, window=TauSigmaWindow(0.7, 100.0), b=24)
        assert plan.design is None
        assert plan.b == 24

    def test_b_override_on_preset(self):
        plan = SoiPlan(n=4096, p=4, window="digits10", b=48)
        assert plan.b == 48


class TestCoefficientTensor:
    def test_shape(self, full_plan):
        assert full_plan.coeffs.shape == (
            full_plan.mu,
            full_plan.b,
            full_plan.p,
        )

    def test_matches_window_closed_form(self, small_plan):
        """C[r, b, p] == (1/M') w(r/M' - (b*P+p)/N) via the generic
        (less precise) evaluation path."""
        plan = small_plan
        r = np.arange(plan.mu)[:, None]
        ell = np.arange(plan.b * plan.p)[None, :]
        t = r / plan.m_over - ell / plan.n
        ref = (
            plan.ref_window.w_time(t, plan.m, plan.b) / plan.m_over
        ).reshape(plan.mu, plan.b, plan.p)
        np.testing.assert_allclose(plan.coeffs, ref, atol=1e-12)

    def test_distinct_element_count_matches_fig4(self, full_plan):
        """Fig. 4: 'The entire matrix has mu*P*B distinct elements.'"""
        assert full_plan.coeffs.size == full_plan.mu * full_plan.p * full_plan.b

    def test_row_zero_peak_near_window_center(self, full_plan):
        """Row r=0 peaks around the stencil middle (the Gaussian bump)."""
        row = np.abs(full_plan.coeffs[0].ravel())
        peak = row.argmax()
        mid = full_plan.b * full_plan.p / 2
        assert abs(peak - mid) < full_plan.p * 2

    def test_demod_vector(self, full_plan):
        assert full_plan.demod.shape == (full_plan.m,)
        assert np.all(np.abs(full_plan.demod) > 0)


class TestDescribe:
    def test_mentions_key_parameters(self, full_plan):
        text = full_plan.describe()
        assert "N=4096" in text
        assert "B=78" in text
        assert "beta=0.25" in text

    def test_segment_slice(self, full_plan):
        assert full_plan.segment_slice(0) == slice(0, 512)
        assert full_plan.segment_slice(7) == slice(3584, 4096)
        with pytest.raises(IndexError):
            full_plan.segment_slice(8)
