"""Power-of-two FFT entry points (one-shots over the cached plan).

The SOI pipeline only ever needs power-of-two lengths when ``N``, ``P``
and the oversampled ``M'`` are chosen the usual way (``beta = 1/4``
turns a power-of-two ``M`` into ``M' = 5*M/4``, a smooth length of the
same engine).  These wrappers keep the historical names and the
power-of-two check; the transform is :func:`repro.dft.plan.fft` /
:func:`~repro.dft.plan.ifft`, like :func:`~repro.dft.fft_mixed_radix`.
"""

from __future__ import annotations

import numpy as np

from ..utils import is_power_of_two

__all__ = ["fft_radix2", "ifft_radix2"]


def _checked(x: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim and not is_power_of_two(arr.shape[-1]):
        raise ValueError(f"{name} requires a power-of-two length, got {arr.shape[-1]}")
    return arr


def fft_radix2(x: np.ndarray) -> np.ndarray:
    """Forward FFT over the last axis; length must be a power of two.

    Matches ``numpy.fft.fft`` conventions (no scaling on the forward
    transform).  Accepts any batch shape ``(..., n)``.
    """
    from .plan import fft  # local import: plan.py imports the kernels

    return fft(_checked(x, "fft_radix2"))


def ifft_radix2(y: np.ndarray) -> np.ndarray:
    """Inverse FFT over the last axis (scaled by 1/n)."""
    from .plan import ifft

    return ifft(_checked(y, "ifft_radix2"))
