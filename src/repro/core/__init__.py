"""The paper's primary contribution: the SOI low-communication FFT.

Submodules
----------
- :mod:`~repro.core.windows` — window functions (Eq. 2) and their design metrics;
- :mod:`~repro.core.design` — (tau, sigma, B) search for target accuracy;
- :mod:`~repro.core.theory` — Definition 1 operators and Theorem 1;
- :mod:`~repro.core.plan` — :class:`SoiPlan`: frozen transform parameters;
- :mod:`~repro.core.convolve` — the ``W x`` kernel (real banded tile GEMMs);
- :mod:`~repro.core.cores` — a SOI call's panels or vectors on every usable CPU;
- :mod:`~repro.core.soi` — the sequential SOI FFT pipeline (Eq. 6);
- :mod:`~repro.core.matrices` — dense reference factorisations for tests;
- :mod:`~repro.core.accuracy` — SNR / digits / error-budget metrics.
"""

from .windows import ReferenceWindow, TauSigmaWindow, GaussianWindow
from .design import WindowDesign, design_window, preset_design, NAMED_PRESETS
from .plan import SoiPlan, clear_soi_plan_cache, soi_plan_cache_info, soi_plan_for
from .soi import soi_fft, soi_ifft, soi_fft2, soi_segment, soi_convolve
from .accuracy import (
    snr_db,
    relative_l2_error,
    error_budget,
    parseval_check,
)

__all__ = [
    "ReferenceWindow",
    "TauSigmaWindow",
    "GaussianWindow",
    "WindowDesign",
    "design_window",
    "preset_design",
    "NAMED_PRESETS",
    "SoiPlan",
    "soi_plan_for",
    "clear_soi_plan_cache",
    "soi_plan_cache_info",
    "soi_fft",
    "soi_ifft",
    "soi_fft2",
    "soi_segment",
    "soi_convolve",
    "snr_db",
    "relative_l2_error",
    "error_budget",
    "parseval_check",
]
