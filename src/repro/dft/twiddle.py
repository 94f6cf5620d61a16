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

import threading
from collections import OrderedDict

import numpy as np

__all__ = ["twiddles", "clear_twiddle_cache"]

_CACHE_MAX_ENTRIES = 256
_cache: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
_lock = threading.Lock()


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
    key = (n, sign)
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            return cached
    # Compute outside the lock: trig is the expensive part and the worst
    # case of two threads racing is a redundant computation.
    values = np.exp(sign * 2j * np.pi * np.arange(n) / n)
    values.setflags(write=False)
    with _lock:
        _cache[key] = values
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_MAX_ENTRIES:
            _cache.popitem(last=False)
    return values


def clear_twiddle_cache() -> None:
    """Drop every cached twiddle array (used by tests and benchmarks)."""
    with _lock:
        _cache.clear()
