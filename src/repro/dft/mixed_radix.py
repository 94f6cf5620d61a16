"""Mixed-radix FFT entry point for arbitrary composite sizes.

The SOI oversampling step turns a power-of-two segment length ``M`` into
``M' = M * mu / nu`` (``5*M/4`` for the paper's favourite ``beta=1/4``),
so the node-local FFT must handle sizes of the form ``odd * 2^a``.
Those — like every smooth size — run the generalized Stockham engine of
:mod:`repro.dft.engine`, which takes composite radices such as 20 or 15
in one GEMM pass instead of peeling one prime per level; this module
keeps the public one-shot over it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fft_mixed_radix"]


def fft_mixed_radix(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """FFT over the last axis for arbitrary length.

    Matches ``numpy.fft`` conventions: forward unscaled, inverse scaled
    by ``1/n``.  Runs the cached plan for the length, so sizes with a
    prime factor above the engine's dense limit take Bluestein.
    """
    from .plan import _one_shot  # local import: plan.py imports the kernels

    return _one_shot(x, inverse)
