"""Floating-point operation accounting for FFT-family kernels.

The paper reports performance in GFLOPS computed as ``5 N log2 N``
divided by execution time (Section 7.1) — the conventional FFT flop
count regardless of the algorithm actually used.  The SOI cost analysis
additionally needs the convolution flop count ``O(N' * B)`` (Section 5).
Keeping the formulas in one place keeps every benchmark and the
performance model consistent.
"""

from __future__ import annotations

import math

__all__ = [
    "fft_flops",
    "soi_convolution_flops",
    "soi_total_flops",
]


def fft_flops(n: int) -> float:
    """Nominal flop count ``5 * n * log2(n)`` of a length-*n* FFT."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return 0.0
    return 5.0 * n * math.log2(n)


def soi_convolution_flops(n_over: int, b: int) -> float:
    """Flops of the SOI convolution ``W @ x``.

    ``W`` has ``N'`` rows (the oversampled point count) each holding a
    length-``B`` complex inner product against complex data: 8 real
    flops per complex multiply-add.
    """
    if n_over <= 0 or b <= 0:
        raise ValueError("n_over and b must be positive")
    return 8.0 * n_over * b


def soi_total_flops(n: int, beta: float, b: int) -> float:
    """Total nominal flops of the SOI pipeline for an N-point transform.

    FFT work on ``N' = N (1+beta)`` points plus the convolution
    (Section 5: ``O(N' log N') + O(N' B)``).  Demodulation and twiddle
    scaling are O(N') and folded into the FFT term's constant the same
    way ``5 N log2 N`` folds them for the standard algorithm.
    """
    n_over = int(round(n * (1.0 + beta)))
    return fft_flops(n_over) + soi_convolution_flops(n_over, b)
