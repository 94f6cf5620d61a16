"""Tests for window design search and the frozen presets."""

import pytest

from repro.core.design import (
    NAMED_PRESETS,
    WindowDesign,
    design_window,
    preset_design,
)
from repro.core.windows import TauSigmaWindow


class TestDesignWindow:
    def test_returns_design(self):
        des = design_window(10.0)
        assert isinstance(des, WindowDesign)
        assert isinstance(des.window, TauSigmaWindow)

    def test_b_shrinks_as_accuracy_relaxes(self):
        """The Fig. 7 premise: lower accuracy => smaller stencil B."""
        bs = [design_window(d).b for d in (14.0, 12.0, 10.0, 8.0)]
        assert bs == sorted(bs, reverse=True)
        assert bs[0] > bs[-1]

    def test_predicted_digits_meet_target(self):
        for d in (12.0, 8.0):
            des = design_window(d)
            assert des.predicted_digits >= d - 0.25

    def test_kappa_respects_cap(self):
        des = design_window(10.0, kappa_max=50.0)
        assert des.kappa <= 50.0

    def test_full_accuracy_matches_paper_operating_point(self):
        """Paper Section 7.2: B = 72 at beta = 1/4 for ~14.5 digits
        (290 dB).  Our search lands within a few blocks of that."""
        des = design_window(14.5)
        assert 60 <= des.b <= 96
        assert des.kappa < 50

    def test_larger_beta_needs_smaller_b(self):
        b_quarter = design_window(12.0, beta=0.25).b
        b_half = design_window(12.0, beta=0.5).b
        assert b_half <= b_quarter

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            design_window(-1.0)
        with pytest.raises(ValueError):
            design_window(17.5)  # beyond double precision

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            design_window(10.0, beta=0.0)
        with pytest.raises(ValueError):
            design_window(10.0, beta=2.0)


class TestPresets:
    def test_all_presets_resolve(self):
        for name in NAMED_PRESETS:
            des = preset_design(name)
            assert des.b >= 2

    def test_preset_cache(self):
        assert preset_design("full") is preset_design("full")

    def test_named_window_returns_window(self):
        assert isinstance(preset_design("digits10").window, TauSigmaWindow)

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="available"):
            preset_design("digits42")

    def test_full_preset_b(self):
        assert preset_design("full").b == 78

    def test_preset_ladder_monotone_in_b(self):
        order = ["full", "digits14", "digits13", "digits12", "digits11", "digits10", "digits8", "digits6"]
        bs = [preset_design(n).b for n in order]
        assert bs == sorted(bs, reverse=True)

    @pytest.mark.slow
    def test_frozen_presets_match_fresh_search(self):
        """Re-run the (slow) search for two presets and compare with the
        frozen constants — guards against silent drift in the designer."""
        for name in ("digits10", "digits6"):
            digits, tau, sigma, b = NAMED_PRESETS[name]
            fresh = design_window(digits)
            assert fresh.b == b
            assert fresh.window.tau == pytest.approx(tau, rel=1e-6)
            assert fresh.window.sigma == pytest.approx(sigma, rel=1e-6)

    # B of a fresh search at beta = 1/2, the same with SciPy's erf and
    # with the NumPy port (at beta = 1/4 it is the frozen B).
    B_AT_HALF_BETA = {
        "full": 40, "digits14": 36, "digits13": 30, "digits12": 28,
        "digits11": 24, "digits10": 22, "digits8": 18, "digits6": 14,
    }

    @pytest.mark.slow
    @pytest.mark.parametrize("name", list(NAMED_PRESETS))
    @pytest.mark.parametrize("beta", [0.25, 0.5])
    def test_every_preset_keeps_its_b(self, name, beta):
        digits, _, _, b = NAMED_PRESETS[name]
        expected = b if beta == 0.25 else self.B_AT_HALF_BETA[name]
        assert design_window(digits, beta=beta).b == expected

    def test_nonstandard_beta_triggers_search(self):
        des = preset_design("digits6", beta=0.5)
        assert des.beta == 0.5
        assert des.b <= NAMED_PRESETS["digits6"][3]
