"""Twiddle-factor computation and caching.

Twiddle factors (roots of unity) dominate FFT set-up cost.  Every plan
and kernel in :mod:`repro.dft` obtains them through this module so that
repeated transforms of the same size — the common case in both the SOI
pipeline (many length-P and length-M' transforms) and the benchmarks —
pay the trigonometry once.

The cache is size-bounded (LRU) because the benchmark sweeps touch many
sizes and an unbounded cache of complex128 arrays would slowly eat the
heap.
"""

from __future__ import annotations

import numpy as np

from ..utils.cache import LruCache

__all__ = ["twiddles", "clear_twiddle_cache"]

_TWIDDLES = LruCache("dft.twiddles", 256)


def twiddles(n: int, sign: int = -1) -> np.ndarray:
    """Return ``exp(sign * 2j*pi*k/n)`` for ``k = 0..n-1`` (cached, read-only).

    ``sign=-1`` gives forward-transform twiddles, ``sign=+1`` inverse.
    The returned array is marked non-writeable; callers needing to
    mutate must copy.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")

    def build() -> np.ndarray:
        values = np.exp(sign * 2j * np.pi * np.arange(n) / n)
        values.setflags(write=False)
        return values

    return _TWIDDLES.get((n, sign), build)


def clear_twiddle_cache() -> None:
    """Drop every cached twiddle array (used by tests and benchmarks)."""
    _TWIDDLES.clear()
