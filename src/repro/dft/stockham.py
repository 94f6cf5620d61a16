"""Iterative batched radix-2 Stockham network (elementwise ufunc passes).

The decimation-in-time butterfly network here is *operation-for-operation
identical* to the classic bit-reversal kernel this module replaced —
every butterfly pairs the same two intermediate values with the same
twiddle factor, so outputs are bit-for-bit unchanged — but the Stockham
ordering folds the permutation into the stage-by-stage data movement:

- no up-front bit-reversal gather (a full strided pass on its own);
- every stage reads two contiguous halves of a ping-pong buffer and
  writes with ``out=`` ufunc calls — no per-stage ``np.concatenate``
  allocation;
- batches are carried on the *fastest* axis (``(K, m, nb)`` layout),
  so even the early small-``m`` stages stream long contiguous runs.

Invariant of the ``(K, m, nb)`` layout: after the stage with half-size
``m``, entry ``Y[k, r, i]`` holds bin ``r`` of the length-``m`` DFT of
the decimated subsequence ``x[i, k::K]``.  The first stage is a pure
reshape (``m = 1`` DFTs are the samples themselves) and the last stage
(``K = 1``) leaves the transform in natural order — self-sorting.

Role: :class:`~repro.dft.plan.FftPlan` runs this network for
power-of-two ``n <= 64`` — the SOI segment counts ``P``, where a GEMM
pass would degenerate to one matrix-vector product per row and where
the column layout (one transform per column, the network's native
orientation) is the hot one.  Because the arithmetic is elementwise, a
column's bits depend on nothing but that column: row, transposed and
column entry points agree bitwise, and a rank's share of the columns
gets the bits the whole array gets.  Larger and non-power-of-two sizes
run :mod:`repro.dft.engine`; this network stays as the frozen
reference the engine is measured against.

Per-stage twiddle tables (``exp(sign*2j*pi*k/2m)``, ``k < m``) are
precomputed once per (size, dtype) and cached.  The kernel computes
natively in ``complex128`` or ``complex64`` (the dtype of the input).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..exectx import execution_context
from .twiddle import twiddles

__all__ = [
    "stockham_fft",
    "stockham_fft_t",
    "stockham_fft_tt",
    "stage_twiddles",
    "clear_stage_cache",
    "context_scratch",
]

_STAGE_CACHE_MAX = 256
_stage_cache: OrderedDict[tuple, tuple] = OrderedDict()
_stage_lock = threading.Lock()

# Batch-expanded twiddle rows (``np.repeat(w, nb)``) let every stage run
# fully contiguous ufunc passes even for small batch counts, where the
# broadcast multiply's inner loop would be short.  They cost n*nb
# complex values per (size, batch) pair, so only modest problems are
# tiled; larger ones use the broadcast path (bit-identical either way —
# the same value pairs are multiplied).
_TILE_MAX_ELEMENTS = 1 << 17
_TILE_CACHE_MAX = 32
_tile_cache: OrderedDict[tuple, tuple] = OrderedDict()
_tile_lock = threading.Lock()

# Scratch reuse: kernel work buffers are fully overwritten every call,
# so they can be recycled across calls of the same size — repeated
# same-size transforms (the plan-cache hit path) then allocate nothing.
# Pools are keyed on :func:`repro.exectx.execution_context` — NOT the OS
# thread — because the DES engine recycles a finished rank's thread as
# the vessel for a later rank: a thread-keyed pool would silently hand
# one rank's scratch to another, breaking rank isolation (plain threads
# degrade to per-thread keys).  Each context keeps a tiny LRU of recent
# sizes.
_SCRATCH_PER_CONTEXT = 4
_SCRATCH_MAX_ELEMENTS = 5 << 17  # 10 MiB of complex128; beyond that, allocate
_scratch_tls = threading.local()


def _kernel_ctype(arr: np.ndarray) -> np.dtype:
    """The compute dtype the kernel runs in for this input.

    ``complex64`` inputs stay single precision (the float32 pipeline);
    everything else is the historical ``complex128`` contract.
    """
    if arr.dtype == np.complex64:
        return np.dtype(np.complex64)
    return np.dtype(np.complex128)


def _scratch_pool() -> OrderedDict:
    """The calling execution context's scratch LRU.

    Lock-free: a context runs on exactly one OS thread for its whole
    life, so a thread-local ``(ctx, pool)`` slot revalidated against the
    current context is private — and a recycled vessel's next rank fails
    the check and starts fresh rather than inheriting buffers.
    """
    ctx = execution_context()
    entry = getattr(_scratch_tls, "entry", None)
    if entry is not None and entry[0] == ctx:
        return entry[1]
    pool: OrderedDict = OrderedDict()
    _scratch_tls.entry = (ctx, pool)
    return pool


def context_scratch(elements: int, ctype: np.dtype) -> np.ndarray:
    """A flat work buffer of *elements* values, recycled per context.

    The contents are undefined on entry and may be handed to the same
    context's next same-size call — never return a view of it.
    """
    if elements > _SCRATCH_MAX_ELEMENTS:
        return np.empty(elements, dtype=ctype)
    pool = _scratch_pool()
    key = (elements, ctype.char)
    buf = pool.get(key)
    if buf is None:
        buf = pool[key] = np.empty(elements, dtype=ctype)
        while len(pool) > _SCRATCH_PER_CONTEXT:
            pool.popitem(last=False)
    else:
        pool.move_to_end(key)
    return buf


def stage_twiddles(n: int, sign: int, ctype: np.dtype | None = None) -> tuple:
    """Per-stage twiddle tables for a length-*n* radix-2 transform.

    Returns one ``(w_row, w_col)`` pair per butterfly stage
    ``m = 1, 2, 4, ..., n/2`` where ``w_row`` has shape ``(m,)`` and
    ``w_col`` is the same table as an ``(m, 1)`` column (both read-only).
    The ``m = 1`` entry is ``None``: its twiddle is exactly ``1`` and the
    kernel skips the multiply altogether.  *ctype* selects the table
    precision (``complex64`` tables are rounded once from the double
    tables and cached separately).
    """
    ct = np.dtype(np.complex128) if ctype is None else np.dtype(ctype)
    key = (n, sign, ct.char)
    with _stage_lock:
        hit = _stage_cache.get(key)
        if hit is not None:
            _stage_cache.move_to_end(key)
            return hit
    stages = []
    m = 1
    while m < n:
        if m == 1:
            stages.append(None)
        else:
            w = twiddles(2 * m, sign)[:m]
            if ct != np.complex128:
                w = w.astype(ct)
                w.setflags(write=False)
            stages.append((w, w.reshape(m, 1)))
        m *= 2
    table = tuple(stages)
    with _stage_lock:
        _stage_cache[key] = table
        _stage_cache.move_to_end(key)
        while len(_stage_cache) > _STAGE_CACHE_MAX:
            _stage_cache.popitem(last=False)
    return table


def clear_stage_cache() -> None:
    """Drop the per-size stage tables (tests and benchmarks)."""
    with _stage_lock:
        _stage_cache.clear()
    with _tile_lock:
        _tile_cache.clear()


def _tiled_twiddles(n: int, sign: int, nb: int, ctype: np.dtype) -> tuple:
    """Per-stage ``repeat(w, nb)`` rows for the batched kernel (cached)."""
    key = (n, sign, nb, ctype.char)
    with _tile_lock:
        hit = _tile_cache.get(key)
        if hit is not None:
            _tile_cache.move_to_end(key)
            return hit
    tiles = []
    for stage in stage_twiddles(n, sign, ctype):
        if stage is None:
            tiles.append(None)
        else:
            tile = np.repeat(stage[0], nb)
            tile.setflags(write=False)
            tiles.append(tile)
    table = tuple(tiles)
    with _tile_lock:
        _tile_cache[key] = table
        _tile_cache.move_to_end(key)
        while len(_tile_cache) > _TILE_CACHE_MAX:
            _tile_cache.popitem(last=False)
    return table


def _network(x: np.ndarray, n: int, sign: int, columns: bool) -> np.ndarray:
    """Butterfly network in the ``(K, m, nb)`` layout, batch on the fast axis.

    *x* holds one transform per column (``columns``: shape ``(n, nb)``,
    read in place and never written — strided column slices work) or per
    row (shape ``(nb, n)``, transposed into scratch first).  Returns a
    fresh contiguous ``(n, nb)`` array whose column ``i`` is transform
    ``i`` — the network's natural output.  Buffer choice never affects
    values: every pass performs the same ufunc calls on the same
    operands wherever they live.
    """
    nb = x.shape[1] if columns else x.shape[0]
    ctype = _kernel_ctype(x)
    total = n * nb
    stages = stage_twiddles(n, sign, ctype)
    tiles = _tiled_twiddles(n, sign, nb, ctype) if total <= _TILE_MAX_ELEMENTS else None
    out = np.empty(total, dtype=ctype)
    buf = context_scratch(2 * total + total // 2, ctype)
    hold, ping, tmp = buf[:total], buf[total : 2 * total], buf[2 * total :]
    if columns:
        src = x[:, None, :]
    else:
        np.copyto(hold.reshape(n, nb), x.T)  # the layout transpose, into scratch
        src = hold.reshape(n, 1, nb)
    m, big_k = 1, n
    for si, stage in enumerate(stages):
        half = big_k // 2
        # Pass si writes ping, hold, ping, ... (never the buffer it
        # reads) and the last pass lands in the result.
        dstbuf = out if half == 1 else (ping, hold)[si % 2]
        dst = dstbuf.reshape(half, 2 * m, nb)
        e, o = src[:half], src[half:]
        if stage is None:
            t = o
        else:
            t = tmp.reshape(half, m, nb)
            if tiles is not None:
                np.multiply(
                    o.reshape(half, m * nb), tiles[si], out=t.reshape(half, m * nb)
                )
            else:
                np.multiply(o, stage[1], out=t)
        np.add(e, t, out=dst[:, :m])
        np.subtract(e, t, out=dst[:, m:])
        m *= 2
        big_k = half
        src = dst
    return out.reshape(n, nb)


# Cache blocking: one transform's ping-pong working set is ~2.5 * n * nb
# complex values; past this element count it overflows L2 and every
# butterfly pass streams from L3/DRAM.  Batch columns are independent,
# so large batches are processed in groups small enough to keep the
# stage passes cache-resident.  Grouping changes which SIMD lane
# computes each element, never the operands — outputs are bit-identical.
_GROUP_MAX_ELEMENTS = 1 << 15


def _network_grouped(x: np.ndarray, n: int, sign: int, columns: bool) -> np.ndarray:
    """:func:`_network`, cache-blocked over the batch; output ``(n, nb)``."""
    nb = x.shape[1] if columns else x.shape[0]
    g = _GROUP_MAX_ELEMENTS // n
    if n * nb <= _GROUP_MAX_ELEMENTS or g == 0:
        return _network(x, n, sign, columns)
    out = np.empty((n, nb), dtype=_kernel_ctype(x))
    for s in range(0, nb, g):
        part = x[:, s : s + g] if columns else x[s : s + g]
        out[:, s : s + g] = _network(part, n, sign, columns)
    return out


def stockham_fft_tt(xt: np.ndarray, sign: int) -> np.ndarray:
    """Transform each *column* of 2-D *xt*, returned as ``(n, nb)``.

    The fully fused variant: input already column-major per transform
    (the network's internal layout) and output in the same orientation —
    neither the entry nor the exit transpose of :func:`stockham_fft` is
    paid.  Values are bit-identical to ``stockham_fft(xt.T, sign).T``.
    """
    xt = np.asarray(xt)
    n = xt.shape[0]
    xt = np.asarray(xt, dtype=_kernel_ctype(xt))
    if n == 1:
        return xt.copy()
    return _network_grouped(xt, n, sign, columns=True)


def stockham_fft_t(x2: np.ndarray, sign: int) -> np.ndarray:
    """Transform each row of 2-D *x2*, returned transposed as ``(n, nb)``.

    Column ``i`` of the result is the transform of row ``i`` — the same
    values :func:`stockham_fft` produces, minus the final transpose copy
    (a pure data-movement saving, so consumers of either layout see
    bit-identical numbers).
    """
    x2 = np.asarray(x2)
    n = x2.shape[1]
    x2 = np.asarray(x2, dtype=_kernel_ctype(x2))
    if n == 1:
        return np.ascontiguousarray(x2.T)
    return _network_grouped(x2, n, sign, columns=False)


def stockham_fft(x: np.ndarray, sign: int) -> np.ndarray:
    """Unscaled radix-2 transform over the last axis of *x*.

    *x* must be complex with a power-of-two last dimension; complex64
    runs natively single-precision, everything else computes in
    complex128 (the contract of the former bit-reversal core).
    ``sign=-1`` is the forward transform, ``sign=+1`` the unscaled
    inverse.  Returns a new array; the input is never modified.
    """
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    x2 = x.reshape(-1, n)
    return np.ascontiguousarray(stockham_fft_t(x2, sign).T).reshape(x.shape)
