"""Node-local FFT library (the substrate the paper fills with Intel MKL).

The SOI algorithm (and the triple-transpose baseline) treat the
node-local FFT as a black-box building block.  This package provides a
complete, self-contained implementation:

- :func:`~repro.dft.naive.dft` / :func:`~repro.dft.naive.idft` — the
  O(N^2) reference transform used as ground truth in tests.
- :mod:`~repro.dft.engine` — the kernel every smooth size runs: a
  generalized Stockham transform whose one to four passes are BLAS-3
  matrix products (``F_R @ X`` for radices up to 32), along the rows
  or, for short lengths such as SOI's ``P``, down fixed-width column
  blocks.
- :func:`~repro.dft.plan.fft` / :func:`~repro.dft.plan.ifft` — the one
  public transform: a one-shot over the cached plan for any length.
- :func:`~repro.dft.bluestein.fft_bluestein` — chirp-z algorithm for
  arbitrary (including prime) sizes via a smooth-length convolution on
  the engine.
- :func:`~repro.dft.real.rfft` / :func:`~repro.dft.real.irfft` — real
  input transforms via the half-size complex trick.
- :class:`~repro.dft.plan.FftPlan` — size-dispatching plan with
  precomputed radix schedule and tables, batched execution, and flop
  accounting.
- :func:`~repro.dft.cache.plan_for` — the process-wide, thread-safe
  LRU plan cache every hot path (backend, one-shots, SOI pipeline)
  routes through.
- :mod:`~repro.dft.backends` — the two named backends (``"repro"``,
  ``"numpy"``), so every higher-level algorithm can run on either this
  library or ``numpy.fft`` interchangeably; an :class:`FftBackend`
  instance can be passed anywhere a name can.

All transforms follow the NumPy sign convention: forward kernel
``exp(-2*pi*i*j*k/N)``, inverse scaled by ``1/N``.
"""

from .naive import dft, idft, dft_matrix
from .bluestein import fft_bluestein
from .real import rfft, irfft
from .plan import FftPlan, fft, ifft
from .cache import (
    clear_plan_cache,
    plan_cache_info,
    plan_for,
    warm_plan_cache,
)
from .backends import FftBackend, get_backend
from .flops import fft_flops

__all__ = [
    "dft",
    "idft",
    "dft_matrix",
    "fft_bluestein",
    "rfft",
    "irfft",
    "FftPlan",
    "fft",
    "ifft",
    "plan_for",
    "clear_plan_cache",
    "plan_cache_info",
    "warm_plan_cache",
    "FftBackend",
    "get_backend",
    "fft_flops",
]
