"""Window design: choosing (tau, sigma, B) for a target accuracy.

Section 4 of the paper prescribes the recipe — pick a reference window
with (a) positivity on the pass-band, (b) moderate condition number
``kappa``, (c) tiny aliasing ratio ``eps_alias``, then derive the
stencil width ``B`` from a truncation threshold ``eps_trunc`` — and
Section 7.3 exploits the *accuracy-for-speed dial*: letting kappa grow
buys faster-decaying time windows, hence smaller B, hence less
convolution arithmetic.

The error model (end of Section 4) is

    ``|error| / |y| = O( kappa * (eps_fft + eps_alias + eps_trunc) )``

to which we add the *pointwise* edge-bin alias ratio
(:meth:`~repro.core.windows.TauSigmaWindow.alias_error_pointwise`),
which our experiments show is the binding constraint at full accuracy.
For a target of ``d`` digits the search enforces

- ``kappa <= 10^-d / (2 * eps_fft)``  (kappa amplifies FFT rounding),
- ``max(kappa * eps_alias, eps_alias_pointwise) <= 0.5 * 10^-d``,
- ``eps_trunc = 10^-d / (2 * kappa)``.

:func:`design_window` runs the (offline, cheap) two-parameter search;
:func:`preset_design` serves frozen presets, including the paper's
full-accuracy operating point (B = 72 at beta = 1/4, SNR ~ 290 dB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .windows import TauSigmaWindow

__all__ = ["WindowDesign", "design_window", "NAMED_PRESETS", "UnknownWindowError"]

# Modelled relative rounding error of the underlying double-precision
# FFT building block.  One ulp models the L2-aggregate per-bin noise of
# a high-quality FFT; calibrated so the kappa cap this induces at the
# 14.5-digit target reproduces the paper's measured 290 dB SNR
# (tests/core/test_accuracy.py pins the calibration).
_EPS_FFT_MODEL_DEFAULT = 2.220446049250313e-16


@dataclass(frozen=True)
class WindowDesign:
    """A fully resolved SOI window design and its quality metrics.

    Attributes mirror the paper's design parameters: the window itself,
    the oversampling rate ``beta`` it was designed for, the stencil
    width ``b`` (the paper's B), and the resulting error metrics.
    ``predicted_digits`` is the modelled worst-case accuracy
    ``-log10(kappa * (eps_alias + eps_trunc))``.
    """

    window: TauSigmaWindow
    beta: float
    b: int
    kappa: float
    eps_alias: float
    eps_trunc: float
    eps_alias_point: float = 0.0
    eps_fft_model: float = _EPS_FFT_MODEL_DEFAULT

    @property
    def predicted_digits(self) -> float:
        total = self.kappa * (
            self.eps_fft_model + self.eps_alias + self.eps_trunc
        ) + self.eps_alias_point
        if total <= 0.0:
            return 16.0
        return min(-math.log10(total), 16.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowDesign({self.window!r}, beta={self.beta}, B={self.b}, "
            f"kappa={self.kappa:.3g}, eps_alias={self.eps_alias:.3g}, "
            f"eps_trunc={self.eps_trunc:.3g}, ~{self.predicted_digits:.1f} digits)"
        )


def _min_sigma_for_alias(
    tau: float, beta: float, eps_budget: float, kappa_max: float
) -> tuple[float, float, float] | None:
    """Smallest sigma with ``kappa * eps_alias <= eps_budget``.

    Returns ``(sigma, kappa, eps_alias)`` or None if infeasible (the
    kappa cap is hit before aliasing is suppressed).  Uses the
    monotonicity of ``kappa * eps_alias`` in sigma: the stop-band margin
    ``1/2 + beta - tau/2`` exceeds the pass-band margin
    ``1/2 - tau/2``, so the product decays as sigma grows.
    """

    def over_budget(sigma: float) -> bool:
        win = TauSigmaWindow(tau, sigma)
        # Enforce both the paper's integral criterion (kappa-weighted)
        # and the pointwise edge-bin criterion; either can dominate.
        # The pointwise one costs three points of H_hat, so it is asked
        # first: a finite value over the budget decides alone (kappa is
        # finite then, and the max below can only be larger).
        point = win.alias_error_pointwise(beta)
        if point > eps_budget and math.isfinite(point):
            return True
        return max(win.kappa() * win.alias_error(beta), point) > eps_budget

    lo, hi = 1.0, 2.0
    while over_budget(hi):
        hi *= 2.0
        if hi > 1e6:
            return None
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        # Once the bracket stops shrinking every further step repeats this
        # one (an evaluated end: the initial lo = 1.0 never is).
        if mid == hi or mid == lo > 1.0:
            break
        if over_budget(mid):
            lo = mid
        else:
            hi = mid
    win = TauSigmaWindow(tau, hi)
    kappa = win.kappa()
    if kappa > kappa_max:
        return None
    return hi, kappa, win.alias_error(beta)


def design_window(
    target_digits: float,
    beta: float = 0.25,
    kappa_max: float = 1000.0,
    tau_grid: np.ndarray | None = None,
) -> WindowDesign:
    """Search the (tau, sigma) plane for the smallest-B feasible window.

    Parameters
    ----------
    target_digits:
        Desired decimal digits of accuracy of the SOI transform (the
        x-axis of the paper's Fig. 7).
    beta:
        Oversampling rate; the paper's default 1/4 throughout.
    kappa_max:
        Cap on the window condition number (paper: "moderate, for
        example less than 1e3").
    tau_grid:
        Candidate band-pass widths; default covers the useful range.

    Returns the minimum-B design meeting the error budget.  Raises
    ``ValueError`` when the target is infeasible (e.g. > ~15.5 digits,
    past double-precision rounding).
    """
    if target_digits <= 0:
        raise ValueError(f"target_digits must be positive, got {target_digits}")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    eps_target = 10.0 ** (-target_digits)
    if tau_grid is None:
        tau_grid = np.linspace(0.30, min(1.0 + 2 * beta, 1.4) - 0.05, 36)
    # kappa amplifies the building-block FFT's rounding noise, so the
    # accuracy target itself caps the usable condition number.
    kappa_cap = min(kappa_max, eps_target / (2.0 * _EPS_FFT_MODEL_DEFAULT))
    if kappa_cap < 1.0:
        raise ValueError(
            f"{target_digits} digits is beyond double precision "
            f"(needs kappa < 1); relax the target"
        )

    best: WindowDesign | None = None
    for tau in map(float, tau_grid):
        found = _min_sigma_for_alias(tau, beta, eps_target / 2.0, kappa_cap)
        if found is None:
            continue
        sigma, kappa, alias = found
        win = TauSigmaWindow(tau, sigma)
        eps_trunc = eps_target / (2.0 * kappa)
        b = win.truncation_width(eps_trunc)
        cand = WindowDesign(
            win, beta, b, kappa, alias, eps_trunc, win.alias_error_pointwise(beta)
        )
        if best is None or cand.b < best.b:
            best = cand
    if best is None:
        raise ValueError(
            f"no feasible (tau, sigma) for {target_digits} digits at beta={beta} "
            f"with kappa <= {kappa_max}"
        )
    return best


# ---------------------------------------------------------------------------
# Frozen presets (computed with design_window; regenerated by
# tests/core/test_design.py which re-runs the search and checks agreement).
# "full" is the paper's operating point: ~14.5 digits, B = 72 at beta = 1/4
# (Section 7.2).  The digitsN presets populate the Fig. 7 accuracy ladder.
# ---------------------------------------------------------------------------

# name -> (target_digits, tau, sigma, B); tau/sigma/B are the search
# results at beta = 1/4, frozen so that building a plan does not pay the
# multi-second search.  tests/core/test_design.py re-runs the search for
# a sample of presets and asserts agreement.
NAMED_PRESETS: dict[str, tuple[float, float, float, int]] = {
    "full": (14.5, 0.9299999999999999, 412.16721206658525, 78),
    "digits14": (14.0, 0.8699999999999999, 337.3976497869326, 72),
    "digits13": (13.0, 0.7799999999999999, 258.3200756181202, 62),
    "digits12": (12.0, 0.72, 212.17836885132982, 56),
    "digits11": (11.0, 0.69, 184.49356127012825, 50),
    "digits10": (10.0, 0.6599999999999999, 159.85452537964346, 44),
    "digits8": (8.0, 0.5999999999999999, 117.3112510268803, 36),
    "digits6": (6.0, 0.51, 78.70621014297933, 26),
}


class UnknownWindowError(ValueError, KeyError):
    """No window preset of that name.

    A ``ValueError`` (a bad argument value) that is also a ``KeyError``,
    which is what a failed preset lookup raised before.
    """

    def __str__(self) -> str:  # KeyError's would quote the message
        return str(self.args[0])


@lru_cache(maxsize=None)
def preset_design(name: str, beta: float = 0.25) -> WindowDesign:
    """The :class:`WindowDesign` behind a named preset (cached).

    For the canonical ``beta = 1/4`` the frozen (tau, sigma, B) values
    are used directly (metrics are recomputed, which is cheap); for any
    other beta the full search runs.
    """
    try:
        digits, tau, sigma, b = NAMED_PRESETS[name]
    except KeyError:
        raise UnknownWindowError(
            f"window={name!r} is not a window preset; "
            f"available: {sorted(NAMED_PRESETS)}"
        ) from None
    if abs(beta - 0.25) > 1e-12:
        return design_window(digits, beta=beta)
    win = TauSigmaWindow(tau, sigma)
    kappa = win.kappa()
    eps_target = 10.0 ** (-digits)
    return WindowDesign(
        win,
        beta,
        b,
        kappa,
        win.alias_error(beta),
        eps_target / (2.0 * kappa),
        win.alias_error_pointwise(beta),
    )
