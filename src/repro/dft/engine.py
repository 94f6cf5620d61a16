"""Generalized Stockham FFT whose passes are BLAS-3 matrix products.

One engine serves every smooth transform length: ``n`` is factored once
into radices ``R_0 >= R_1 >= ... `` (each at most :data:`MAX_RADIX`, or
a single prime up to :data:`MAX_DENSE_PRIME`) and each radix is one
*pass* over the data — three or four passes where a radix-2 network
makes ``log2 n``.  With ``m`` the product of the radices already
applied and ``K = n / (m R)`` the sub-transforms still interleaved, a
pass is

1. one twiddle multiply, ``Y[j, k, r] *= w_{mR}^{j r}`` on the
   ``(R, K, m)`` view of a row (skipped in pass 0, where ``m = 1``);
2. one dense ``F_R`` product over the radix axis — ``np.matmul``, i.e.
   zgemm for complex128 and cgemm for complex64;
3. the Stockham interleave ``(R, K, m) -> (K, R, m)`` into the next
   pass's layout, which the GEMM performs itself by reading the
   transposed view (its ``ldb`` is the row stride) — no transpose sweep.

After the last pass (``K = 1``) the row is the transform in natural
order.  The inverse is not a second table set: callers read the forward
result index-reversed (:meth:`repro.dft.plan.FftPlan.execute`).

Why a stacked call is bitwise its rows
--------------------------------------
A GEMM's bits follow its *call shape*: ``F @ X[:, a:b]`` and
``(F @ X)[:, a:b]`` differ in the last place for most slices, because
BLAS blocks the free dimension.  Every product of the row layout runs
inside one row of the ``(batch, R, n/R)`` layout, so its ``(M, N, K)``,
transposition and leading dimensions are functions of ``n`` alone;
stacking rows adds iterations to ``np.matmul``'s outer loop and nothing
else.

The column layout
-----------------
Short transforms come in the other orientation: SOI's fft-p stage is
``M'`` length-``P`` transforms, one per column of a ``(P, M')`` array.
Row by row, those are ``P``-point GEMMs of one matrix-vector product
each; down the columns, the same schedule is a few ``F_R @ (R, W)``
products over blocks of :data:`BLOCK_COLUMNS` columns —
:meth:`GemmStockham.forward_columns`, the row passes with a trailing
block axis.  Every call has that one shape: the ragged last block is
zero-padded in pooled scratch.  A BLAS gives a column the same bits at
any position, next to any neighbours, inside a same-shaped call
(OpenBLAS does; ``tests/dft/test_column_kernel.py`` checks the running
one), so a column's bits depend on that column alone, and a rank's share
of the columns, a panel of them or a coalesced batch gets the bits the
whole array gets, with no global anchor.  A *different* width would
change them, so the width is fixed.

Which layout is native is one rule, :attr:`GemmStockham.column_native`:
a length runs down the columns when its ``(n, W)`` block is smaller
than one chunk (every power of two up to 128, where the row layout's
per-row GEMMs are tiny) and along the rows otherwise.  The other layout
transposes into the native one (:class:`~repro.dft.plan.FftPlan`), so
rows and columns share one arithmetic by construction.

The radix cap: a pass sums ``R`` terms in one dot product, so its
worst-case rounding bound grows linearly in ``R`` while it retires only
``log2 R`` bits, and its GEMM time per element grows the same way
(measured 2.5 / 3.8 / 5.2 ns at ``R = 8 / 16 / 32``).  Up to 32 the
cost per bit is flat, so fewest passes wins; past it every schedule
tried was 8-20% slower.  On random data the measured error does not
move with the radix (9.3e-16 to 1.0e-15 relative at ``n = 2^20`` for
``32^4``, ``64*64*16*16`` and ``128*128*64`` alike).

Rows are processed in chunks of about :data:`_CHUNK_ELEMENTS` so one
chunk's ping-pong pair (the result rows and one pooled scratch buffer)
stays cache-resident through all passes; the chunk height never enters
a GEMM shape.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from ..exectx import execution_context
from ..utils import factorize

__all__ = [
    "GemmStockham",
    "radix_schedule",
    "is_smooth",
    "inverse_from_forward",
    "context_scratch",
    "MAX_RADIX",
    "MAX_DENSE_PRIME",
    "BLOCK_COLUMNS",
]

#: Largest composite radix of a pass (see "The radix cap" above).
MAX_RADIX = 32

#: Largest prime taken as a (single-prime) radix; lengths with a larger
#: prime factor go to Bluestein.
MAX_DENSE_PRIME = 61

# Rows are chunked so a chunk holds about this many elements (1 MiB of
# complex128): two such buffers fit a typical L2.
_CHUNK_ELEMENTS = 1 << 16

#: Columns per GEMM of the column layout: the square root of a chunk, so
#: a column-native block (``n < BLOCK_COLUMNS`` rows) is under one chunk.
BLOCK_COLUMNS = math.isqrt(_CHUNK_ELEMENTS)

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


def is_smooth(n: int) -> bool:
    """True iff every prime factor of *n* can be a radix of the engine."""
    return n == 1 or factorize(n)[-1] <= MAX_DENSE_PRIME


def radix_schedule(n: int) -> tuple[int, ...]:
    """The radices of a length-*n* transform, largest first.

    The fewest passes whose radices can all stay within
    :data:`MAX_RADIX`, balanced: prime factors are dealt largest-first
    onto the currently smallest radix (so ``2^16 -> 16, 16, 16, 16``
    rather than ``32, 32, 32, 2``; ``5120 -> 20, 16, 16``).  A prime
    above the cap is a radix of its own.  ``n`` must be smooth.
    """
    primes = sorted(factorize(n), reverse=True) if n > 1 else []
    if not primes:
        return ()
    passes = 1
    while MAX_RADIX**passes < n:
        passes += 1
    while True:
        radices = [1] * passes
        for p in primes:
            radices[radices.index(min(radices))] *= p
        # A product of two or more primes is never itself a prime factor.
        if all(r <= MAX_RADIX or r in primes for r in radices):
            # (a lone prime above the cap leaves its pass-mates at 1)
            return tuple(sorted((r for r in radices if r > 1), reverse=True))
        passes += 1


def inverse_from_forward(fwd: np.ndarray) -> np.ndarray:
    """The ``1/n``-scaled inverse transform of each row, given its forward.

    ``sum_j x_j w^(-jk)`` is the forward sum at bin ``-k mod n``: the
    inverse is the forward result read index-reversed, so no kernel
    keeps conjugated tables.  One sweep, the ``1/n`` scale folded in.
    """
    out = np.empty_like(fwd)
    scale = 1.0 / fwd.shape[-1]
    np.multiply(fwd[:, :1], scale, out=out[:, :1])
    np.multiply(fwd[:, :0:-1], scale, out=out[:, 1:])
    return out


def _roots(index: np.ndarray, period: int, ctype: np.dtype) -> np.ndarray:
    """``exp(-2*pi*i * index / period)`` as a read-only *ctype* table."""
    theta = index * (-2.0 * np.pi / period)
    table = np.empty(index.shape, dtype=np.complex128)
    table.real = np.cos(theta)
    table.imag = np.sin(theta)
    table = table.astype(ctype, copy=False)
    table.setflags(write=False)
    return table


class GemmStockham:
    """Forward transform of length *n* at compute dtype *ctype*.

    Owns its tables — one ``R x R`` DFT matrix per pass and the
    ``(R-1, 1, m)`` twiddle block of every pass after the first, about
    ``n (1 + 1/R)`` values in all — so they live exactly as long as the
    plan that holds the engine.  Both layouts run the same tables;
    :attr:`column_native` says which one the length belongs to.
    """

    def __init__(self, n: int, ctype: np.dtype) -> None:
        self.n = n
        self.ctype = np.dtype(ctype)
        self.radices = radix_schedule(n)
        self.chunk_rows = max(1, _CHUNK_ELEMENTS // n)
        self.column_native = n < BLOCK_COLUMNS
        matrices, twiddles = [], []
        m = 1
        for r in self.radices:
            j = np.arange(r)
            f = _roots(np.outer(j, j) % r, r, self.ctype)
            # Pass 0 multiplies from the right (see forward()); F_R is
            # symmetric, so its transpose is the same table.
            matrices.append(f)
            # Row j = 0 of the twiddle block is all ones: not stored,
            # not multiplied.
            twiddles.append(
                None
                if m == 1
                else _roots(np.outer(j[1:], np.arange(m)), m * r, self.ctype)[:, None, :]
            )
            m *= r
        self.matrices = tuple(matrices)
        self.twiddles = tuple(twiddles)

    def forward(self, x2: np.ndarray) -> np.ndarray:
        """Unscaled forward transform of each row of *x2*.

        *x2* is a C-contiguous ``(rows, n)`` array of the engine's
        dtype; it is only read.  Returns a new array — never a view of
        pooled scratch.
        """
        nb, n = x2.shape
        out = np.empty((nb, n), dtype=self.ctype)
        radices, matrices, twiddles = self.radices, self.matrices, self.twiddles
        last = len(radices) - 1
        g = self.chunk_rows
        scratch = context_scratch(g * n, self.ctype) if last else None
        for s in range(0, nb, g):
            src, dst = x2[s : s + g], out[s : s + g]
            gg = src.shape[0]
            spare = scratch[: gg * n].reshape(gg, n) if last else None
            # Passes ping-pong between dst and spare; start on the one
            # that makes the last pass land in dst.
            cur = spare if last % 2 else dst
            r = radices[0]
            # Pass 0 (m = 1): F_R applied from the right to the
            # transposed (n/R, R) view, so the product lands directly in
            # the interleaved (K, R) layout.
            np.matmul(
                src.reshape(gg, r, n // r).transpose(0, 2, 1),
                matrices[0],
                out=cur.reshape(gg, n // r, r),
            )
            m = r
            for i in range(1, last + 1):
                r = radices[i]
                k = n // (m * r)
                view = cur.reshape(gg, r, k, m)
                np.multiply(view[:, 1:], twiddles[i], out=view[:, 1:])
                nxt = spare if cur is dst else dst
                # One (R, R) @ (R, m) product per (row, k), read at row
                # stride k*m and written contiguously: the GEMM does
                # the (R, K, m) -> (K, R, m) interleave.
                np.matmul(
                    matrices[i],
                    view.transpose(0, 2, 1, 3),
                    out=nxt.reshape(gg, k, r, m),
                )
                cur = nxt
                m *= r
        return out

    def forward_columns(self, xt: np.ndarray) -> np.ndarray:
        """Unscaled forward transform of each column of 2-D *xt*.

        *xt* is ``(n, cols)`` of the engine's dtype, any strides; it is
        only read.  Every product is ``F_R @ (R, BLOCK_COLUMNS)``:
        blocks with unit column stride are read in place, the others
        (the ragged last block, a transposed row batch) are first copied
        into zero-padded scratch.  Returns a new ``(n, cols)`` array.
        """
        n, cols = xt.shape
        out = np.empty((n, cols), dtype=self.ctype)
        if not self.radices:  # n == 1
            out[...] = xt
            return out
        w = BLOCK_COLUMNS
        work = context_scratch(2 * n * w, self.ctype)
        bufs = (work[: n * w].reshape(n, w), work[n * w :].reshape(n, w))
        last = len(self.radices) - 1
        # Positive row strides of at least a row keep a block a BLAS
        # operand (anything else would drop numpy into its own loop).
        in_place = xt.strides[1] == xt.itemsize and xt.strides[0] >= cols * xt.itemsize
        for s in range(0, cols, w):
            e = min(s + w, cols)
            src, dst = xt[:, s:e], out[:, s:e]
            if e - s < w or not in_place:
                bufs[1][:, : e - s] = src
                bufs[1][:, e - s :] = 0
                src = bufs[1]
            if e - s < w:
                dst = bufs[last % 2]
            # Pass i reads the previous pass's buffer and writes the
            # other one; the last lands in dst.
            cur, m = src, 1
            for i, r in enumerate(self.radices):
                k = n // (m * r)
                nxt = dst if i == last else bufs[i % 2]
                view = cur.reshape(r, k, m, w)
                if i:
                    tw = self.twiddles[i][..., None]
                    np.multiply(view[1:], tw, out=view[1:])
                # One F_R @ (R, w) product per (k, j): the (R, K, m)
                # -> (K, R, m) interleave of the row passes, per column.
                np.matmul(
                    self.matrices[i],
                    view.transpose(1, 2, 0, 3),
                    out=nxt.reshape(k, r, m, w).transpose(0, 2, 1, 3),
                )
                cur, m = nxt, m * r
            if e - s < w:
                out[:, s:e] = dst[:, : e - s]
        return out
