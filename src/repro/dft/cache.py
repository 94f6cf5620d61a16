"""The global FFT plan cache — "create a plan once, execute many times".

Production FFT libraries (FFTW, MKL — the substrates of the paper's
Fig. 2) amortise plan construction over thousands of executions.  The
repro backend used to throw that away, building a fresh
:class:`~repro.dft.plan.FftPlan` — re-running factorisation, kernel
dispatch and cache warming — on *every* transform.  This module is the
fix: a process-wide, thread-safe, LRU-bounded cache keyed by transform
length and compute dtype that the ``"repro"`` backend, the one-shot
:func:`repro.dft.fft` / :func:`repro.dft.ifft` helpers and therefore the
whole SOI pipeline route through.

Dtype soundness: a plan computes in one dtype — complex128, or
complex64 for the explicit ``precision="single"`` opt-in — and
:class:`FftPlan` normalises inputs to it at its own boundary.  The
cache key carries that *compute* dtype, never the caller's: every
caller dtype (float32, complex64, ...) maps to the complex128 plan
unless single precision is asked for by name, so mixed-dtype callers
share one plan *by construction* rather than by accidental collision,
and the two precisions get distinct entries instead of corrupting each
other.

Thread safety is a hard requirement, not hygiene: :func:`repro.simmpi.run_spmd`
ranks are *threads*, so a distributed FFT has every rank hammering this
cache concurrently.  Lookups and insertions hold one lock; plans are
constructed under the lock so a size is built exactly once and every
caller shares the same plan object (``plan_for(n) is plan_for(n)``).
Plan execution itself is lock-free — plans are immutable after
construction apart from the internally-locked execution counter.

For the happens-before audit of :mod:`repro.check.hb` the cache exposes
an observer hook: :func:`set_plan_cache_observer` registers a
``(state, kind, guard)`` callable invoked on every :func:`plan_for`
call, declaring the access and the lock that guards it.  The default is
``None`` and costs one global read per lookup.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from ..utils import check_positive_int
from .plan import FftPlan

__all__ = [
    "plan_for",
    "clear_plan_cache",
    "plan_cache_info",
    "set_plan_cache_observer",
    "warm_plan_cache",
]

#: The LRU bound: distinct (length, dtype) plans kept at once.
_MAX_PLANS = 64

#: The default compute dtype (see FftPlan._as_compute).
_COMPUTE_DTYPE = np.dtype(np.complex128)

#: Name of the lock guarding the cache, declared to the HB checker.
_GUARD = "repro.dft.cache._lock"

_lock = threading.Lock()
_plans: OrderedDict[tuple[int, str], FftPlan] = OrderedDict()
_hits = 0
_misses = 0
_evictions = 0
_observer: Callable[[str, str, str], None] | None = None


def _compute_dtype(dtype: Any, precision: str | None = None) -> np.dtype:
    """Map a caller dtype (+ explicit precision opt-in) to compute dtype.

    All numeric inputs (real or complex, any precision) are transformed
    in complex128 by default; non-numeric dtypes are rejected here
    rather than deep inside a kernel.  ``precision="single"`` is the
    explicit opt-in for complex64 compute — never inferred from the
    caller dtype, so existing float32/complex64 callers keep their
    double-precision results bit-for-bit.
    """
    if precision is not None and precision not in ("double", "single"):
        raise ValueError(f"precision must be 'double' or 'single', got {precision!r}")
    if dtype is not None:
        dt = np.dtype(dtype)
        if dt.kind not in "biufc":
            raise TypeError(f"cannot plan an FFT over dtype {dt}")
    if precision == "single":
        return np.dtype(np.complex64)
    return _COMPUTE_DTYPE


def plan_for(n: int, dtype: Any = None, precision: str | None = None) -> FftPlan:
    """The shared :class:`FftPlan` for length *n* (built once, LRU-cached).

    *dtype* is the caller's input dtype; it is normalised to the compute
    dtype the plan executes in (complex128 for every numeric input) and
    that normalised dtype is part of the cache key.  Mixed float32 /
    complex64 / complex128 callers therefore share one plan soundly —
    the plan casts at its boundary, so a cache hit can never replay a
    kernel at the wrong precision.  ``precision="single"`` opts in to a
    complex64 compute plan under a *distinct* cache key (the
    reduced-precision path the original key design anticipated).

    Both directions execute through the same plan object
    (``plan.execute(x, inverse=...)``), so one cache entry serves
    ``fft`` and ``ifft`` alike.
    """
    global _hits, _misses, _evictions
    obs = _observer
    if obs is not None:
        obs("dft.plan_cache", "rw", _GUARD)
    compute = _compute_dtype(dtype, precision)
    key = (check_positive_int(n, "n"), compute.str)
    with _lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
            _hits += 1
            return plan
        # Build under the lock: construction is one-time work and doing
        # it here guarantees a single shared plan object per size.
        plan = FftPlan(
            key[0], precision="single" if compute == np.complex64 else "double"
        )
        _plans[key] = plan
        _plans.move_to_end(key)
        _misses += 1
        while len(_plans) > _MAX_PLANS:
            _plans.popitem(last=False)
            _evictions += 1
        return plan


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (tests/benchmarks)."""
    global _hits, _misses, _evictions
    with _lock:
        _plans.clear()
        _hits = 0
        _misses = 0
        _evictions = 0


def plan_cache_info() -> dict[str, int]:
    """Cache statistics: entries, hits, misses, evictions, max_plans."""
    with _lock:
        return {
            "entries": len(_plans),
            "hits": _hits,
            "misses": _misses,
            "evictions": _evictions,
            "max_plans": _MAX_PLANS,
        }


def warm_plan_cache(shapes: Any) -> dict[str, int]:
    """Pre-build plans for *shapes* so first requests pay no construction.

    *shapes* is an iterable of lengths (``int``) or ``(n, dtype)``
    pairs.  Returns ``{"requested": ..., "built": ..., "already": ...}``
    — ``built`` counts plans this call found cold, ``already`` the
    shapes that were warm before it.

    This is the server-start warmup hook: a transform service warms the
    sizes it expects and its first requests execute on cache hits
    instead of paying plan construction in-band.
    """
    requested = built = already = 0
    for shape in shapes:
        if isinstance(shape, (tuple, list)):
            n, dtype = shape
        else:
            n, dtype = shape, None
        requested += 1
        key = (check_positive_int(n, "n"), _compute_dtype(dtype).str)
        with _lock:
            warm = key in _plans
        if warm:
            already += 1
        else:
            built += 1
        plan_for(n, dtype)
    return {"requested": requested, "built": built, "already": already}


def set_plan_cache_observer(
    observer: Callable[[str, str, str], None] | None,
) -> Callable[[str, str, str], None] | None:
    """Install a cache access observer; returns the previous one.

    The observer is called as ``observer("dft.plan_cache", "rw", guard)``
    on every :func:`plan_for` call, *outside* the cache lock — it
    declares the access (and the guard protecting it) to auditors such
    as :class:`repro.check.hb.HbTracker` without ever extending the
    lock's critical section.
    """
    global _observer
    previous = _observer
    _observer = observer
    return previous
