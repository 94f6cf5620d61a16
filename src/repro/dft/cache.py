"""The global FFT plan cache — "create a plan once, execute many times".

One :class:`~repro.dft.plan.FftPlan` per length and compute dtype, kept
in the process-wide ``dft.plan_cache`` (:class:`repro.utils.cache.LruCache`)
that the ``"repro"`` backend, the one-shot :func:`repro.dft.fft` /
:func:`repro.dft.ifft` helpers and the whole SOI pipeline route through.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..utils import check_positive_int
from ..utils.cache import LruCache
from .plan import FftPlan

__all__ = ["plan_for", "clear_plan_cache", "plan_cache_info", "warm_plan_cache"]

#: Distinct (length, compute dtype) plans kept at once.
_PLANS = LruCache("dft.plan_cache", 64)


def _key(n: int, dtype: Any, precision: str | None) -> tuple[int, str]:
    """``(n, compute dtype)``: every numeric caller dtype computes in
    complex128 unless ``precision="single"``; non-numeric dtypes are
    rejected here rather than deep inside a kernel."""
    if precision is not None and precision not in ("double", "single"):
        raise ValueError(f"precision must be 'double' or 'single', got {precision!r}")
    if dtype is not None:
        dt = np.dtype(dtype)
        if dt.kind not in "biufc":
            raise TypeError(f"cannot plan an FFT over dtype {dt}")
    compute = np.dtype(np.complex64 if precision == "single" else np.complex128)
    return check_positive_int(n, "n"), compute.str


def plan_for(n: int, dtype: Any = None, precision: str | None = None) -> FftPlan:
    """The shared :class:`FftPlan` for length *n* (built once, LRU-cached).

    *dtype* is the caller's input dtype; it is normalised to the compute
    dtype the plan executes in (complex128 for every numeric input) and
    that normalised dtype is part of the cache key.  Mixed float32 /
    complex64 / complex128 callers therefore share one plan soundly —
    the plan casts at its boundary, so a cache hit can never replay a
    kernel at the wrong precision.  ``precision="single"`` selects a
    complex64 compute plan under a *distinct* cache key; it is never
    inferred from *dtype* here (the ``"repro"`` backend is what runs a
    complex64 payload on it, :mod:`repro.dft.backends`).

    Both directions execute through the same plan object
    (``plan.execute(x, inverse=...)``), so one cache entry serves
    ``fft`` and ``ifft`` alike.
    """
    key = _key(n, dtype, precision)
    return _PLANS.get(key, lambda: FftPlan(key[0], precision=precision or "double"))


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (tests/benchmarks)."""
    _PLANS.clear()


def plan_cache_info() -> dict[str, int]:
    """Cache statistics: entries, hits, misses, evictions, maxsize."""
    return _PLANS.info()


def warm_plan_cache(shapes: Any) -> dict[str, int]:
    """Pre-build plans for *shapes* so first requests pay no construction.

    *shapes* is an iterable of lengths (``int``) or ``(n, dtype)``
    pairs.  A pair warms the plan the ``"repro"`` backend runs a payload
    of that dtype on (complex64: the single-precision plan).  Returns
    ``{"requested": ..., "built": ..., "already": ...}`` — ``built``
    counts plans this call found cold, ``already`` the shapes that were
    warm before it.

    This is the server-start warmup hook: a transform service warms the
    sizes it expects and its first requests execute on cache hits
    instead of paying plan construction in-band.
    """
    from .backends import _repro_precision

    requested = built = 0
    for shape in shapes:
        n, dtype = shape if isinstance(shape, (tuple, list)) else (shape, None)
        precision = None if dtype is None else _repro_precision(np.dtype(dtype))
        requested += 1
        built += _key(n, dtype, precision) not in _PLANS
        plan_for(n, dtype, precision)
    return {"requested": requested, "built": built, "already": requested - built}
