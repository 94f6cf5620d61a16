"""Accuracy metrics: SNR, digits, and the Section-4 error budget.

The paper reports accuracy as signal-to-noise ratio in dB
(Section 7.2: full-accuracy SOI ~ 290 dB, standard FFTs ~ 310 dB; each
decimal digit is worth 20 dB).  These helpers make every experiment and
test speak that same language.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "snr_db",
    "relative_l2_error",
    "error_budget",
    "parseval_check",
]


def snr_db(computed: np.ndarray, reference: np.ndarray) -> float:
    """Signal-to-noise ratio ``10*log10(|ref|^2 / |ref - computed|^2)`` in dB.

    Returns ``inf`` for an exact match.  Both inputs are flattened; they
    must have the same number of elements.
    """
    ref = np.asarray(reference).ravel()
    got = np.asarray(computed).ravel()
    if ref.size != got.size:
        raise ValueError(f"size mismatch: {got.size} vs {ref.size}")
    signal = float(np.sum(np.abs(ref) ** 2))
    noise = float(np.sum(np.abs(ref - got) ** 2))
    if signal == 0.0:
        raise ValueError("reference signal is identically zero")
    if noise == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / noise)


def relative_l2_error(computed: np.ndarray, reference: np.ndarray) -> float:
    """``|ref - computed|_2 / |ref|_2`` over flattened inputs."""
    ref = np.asarray(reference).ravel()
    got = np.asarray(computed).ravel()
    if ref.size != got.size:
        raise ValueError(f"size mismatch: {got.size} vs {ref.size}")
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        raise ValueError("reference signal is identically zero")
    return float(np.linalg.norm(ref - got)) / denom


def error_budget(plan) -> dict[str, float]:
    """The Section-4 error decomposition for a plan with a known design.

    ``computed_y - y) / |y| = O(kappa * (eps_fft + eps_alias + eps_trunc))``

    ``eps_fft`` is taken as double-precision rounding amplified by the
    log-depth of the underlying FFT (the usual O(eps * log N) model).
    Returns the individual terms and the modelled total/digits/SNR.
    """
    design = getattr(plan, "design", None)
    if design is None:
        raise ValueError("plan was built from a bare window; no design metrics")
    eps_fft = np.finfo(np.float64).eps * math.log2(max(plan.n_over, 2))
    total = design.kappa * (eps_fft + design.eps_alias + design.eps_trunc)
    return {
        "kappa": design.kappa,
        "eps_fft": eps_fft,
        "eps_alias": design.eps_alias,
        "eps_trunc": design.eps_trunc,
        "modelled_relative_error": total,
        "modelled_digits": -math.log10(total),
        "modelled_snr_db": -20.0 * math.log10(total),
    }


def parseval_check(x: np.ndarray, y: np.ndarray, plan) -> bool:
    """Whether ``y`` passes the Parseval screen for ``y ≈ fft(x)`` under *plan*.

    For an exact DFT ``sum |y|^2 = N * sum |x|^2``.  The screen accepts a
    relative energy error up to 100x the plan's modelled error budget
    (the energy error is about twice the amplitude error, so honest
    outputs sit far inside it), or 1e-8 for a bare-window plan with no
    budget.  Corruption that no message checksum could see, such as
    damage done before framing, moves the energy by orders of magnitude
    and fails it, as do NaN/Inf outputs.  Distributed callers pass the
    gathered input and output.
    """
    try:
        tol = max(1e-12, 100.0 * error_budget(plan)["modelled_relative_error"])
    except ValueError:
        tol = 1e-8
    e_in = float(np.sum(np.abs(x) ** 2))
    e_out = float(np.sum(np.abs(y) ** 2))
    if e_in == 0.0:
        return e_out == 0.0
    return abs(e_out - plan.n * e_in) / (plan.n * e_in) <= tol
