"""The SOI convolution kernel ``z = W x`` as real banded tile GEMMs.

The plan's coefficient tensor factors as ``C[r, b, p] = phase[r, p] *
T[r, b, p]`` with ``T`` real (:meth:`SoiPlan._coefficient_tables`), so

    ``z[q*mu + r, p] = phase[r, p] * sum_b T[r, b, p] * u_p[q*nu + b]``

where ``u_p[k] = x[k*P + p]`` is the input seen by column ``p``.  The
sum is a real filter applied to the real and imaginary parts of ``u_p``
alike — ``4*N'*B`` flops instead of the ``8*N'*B`` of a complex
contraction — and the unit-modulus phase is applied once per output.

The input is the caller's vector as ``(samples, P)`` rows: a *body*
(the vector, or a rank's block) and a *tail* after it (the periodic
wrap, or the neighbour's halo), passed separately so that nothing
copies them into one buffer.  Chunk ``q`` reads rows ``[q*nu, q*nu +
B)`` of ``body ++ tail``.  A tile column is a *group* of ``G`` chunks
(``K = (G-1)*nu + B`` rows in, ``N = G*mu`` outputs out), ``H`` groups
make a grid cell, and a call runs in *panels* of whole cells.  Each step
(a range of ``p`` by a few cells) is three passes:

1. **Gather.**  One strided copy (``np.conjugate(..., out=)`` for the
   inverse transform) takes the overlapping stencil windows straight
   from the caller's rows into complex tiles ``(p, cell, K, H)``.
2. **GEMM.**  One batched real GEMM in transposed form, ``banded_t
   (N, K) @ tiles (K, 2H)``, the complex tiles viewed as real (dgemm,
   or sgemm for complex64 plans).  A tile row holds the real and
   imaginary parts of ``H`` groups side by side, so the ``(N, 2H)``
   product, written straight into the panel, is interleaved complex:
   each cell's outputs stored transposed, ``(N, H)``.
3. **Phase.**  One in-place ``np.multiply`` of the panel rows by the
   phase laid out the same way.

A cell the caller does not own whole, or whose windows run from the
body into the tail, is gathered instead from a small zero-padded
*stitch* buffer, into the same GEMM.

**The fft-p panel.**  Given the plan's column transform (``fft_p``,
``I_M' (x) F_P``), each panel is transformed while it is in cache, and
the copy of its owned columns into the ``(P, M')`` result puts every
cell's columns back in order (a column transform does not care about
their order).  Over the whole ``(64, 20480)`` array at N = 2^20 the
transform is ~2x slower: its rows sit ``5 * 2^16`` bytes apart, which
maps a column onto a handful of cache sets.  The transform runs in
place (``fft_p`` may overwrite the pooled panel and return it; the
numpy backend's ``fft_tt_into``), so the copy-out reads the panel the
transform just wrote instead of a fresh ~2 MB array it would read cold.
On 2 vCPUs (Intel Xeon, NumPy 2.4.6), fft-p plus copy-out of a warm
``(64, 1920)`` panel took 1.85-2.20 ms into a fresh array, the same
into a separate pooled ``out=``, and 1.15-1.38 ms in place (medians of
two sets of 300); fft-p of a 2^20 / 64 ``soi_fft`` fell from 19.6-22.4
to 8.9-10.8 thread-CPU ms per call.  The values equal ``fft_p`` of the
whole untransformed output bit for bit, because each column is
transformed on its own (a contract of
:class:`~repro.dft.backends.FftBackend`, re-proved by the tests).

**Panels on every CPU.**  Panels are cut where the *global* chunk index
is a multiple of the panel width, itself a multiple of the grid
(:meth:`ConvolveKernel.panel_units`).  With a transform each panel is a
unit, convolved in the workspace its thread checked out and copied into
its own columns of the output, so the units run on every CPU with a
free workspace (:mod:`repro.core.cores`) and none can tell how many did.

**Bitwise equality of sub-ranges, by construction.**  Every GEMM call
has the same ``(N, K) @ (K, 2H)`` shape whatever the caller's chunk
count, and the grid of ``G*H``-chunk cells is anchored at *global*
chunk 0: the caller passes the global index ``q0`` of its first chunk,
cells it only partly owns are zero-padded, and so a rank, an overlap
slice and the sequential call compute a given output at the same row
and column of an identically-shaped call, from the caller's rows or
the stitch buffer alike.  A BLAS that picks its summation order from
the problem shape (OpenBLAS does, below ``M*N*K ~ 1e6``) cannot tell
the callers apart.  Zero padding is exact for finite data: a sample
outside an output's stencil only meets a structural zero of the banded
matrix.  (A NaN or Inf there makes that zero NaN: a non-finite sample
poisons every chunk of each group whose ``K``-row window holds it.)

Group and grid width, step shape, panel width and pool size derive
from ``(B, nu, mu, P, itemsize)``, a fixed scratch budget and the CPU
count.  The output is always a fresh array.
"""

from __future__ import annotations

import os
import queue
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import cores

__all__ = ["ConvolveKernel"]

#: ``H``, the chunk groups of one grid cell: ``2H`` real GEMM columns.
#: The kernel at N = 2^20, P = 64 on one CPU took 50.1, 47.1 and 47.5 ms
#: at H = 8, 16 and 32.
_TILE_ROWS = 16
#: Scratch budget per workspace.  A step covers every column of as many
#: cells as fit; its NumPy calls each drop and retake the GIL, so with
#: rank threads sharing one interpreter a few large steps beat many
#: small ones.  Columns split only past ``_P_SPLIT`` budgets per cell.
_SCRATCH_BUDGET = 1 << 20
_P_SPLIT = 4
#: The fft-p panel holds as many whole steps of output as fit in this
#: many scratch budgets (3 steps = 1920 columns at N = 2^20, P = 64).
_PANEL_BUDGETS = 2


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


class _Workspace:
    """Scratch for one panel: ``tiles`` holds one step's gathered stencil
    windows, ``stitch`` the zero-padded rows of one edge cell, and
    ``panel`` (built on first use, grown to the largest panel seen) whole
    grid cells of output, each cell's ``(H, N)`` outputs transposed."""

    __slots__ = ("tiles", "stitch", "panel")

    def __init__(self, k: "ConvolveKernel") -> None:
        dtype = k.phase.dtype
        self.tiles = np.empty((k.p_step, k.cells, k.tile_k, _TILE_ROWS), dtype=dtype)
        self.stitch = np.empty((k.span, k.p_step), dtype=dtype)
        self.panel: np.ndarray | None = None


class ConvolveKernel:
    """Banded real tables of one plan plus the pooled scratch to apply them.

    Parameters are the plan's real table ``T`` of shape ``(mu, B, P)``,
    its ``(mu, P)`` phase (both at the plan's precision) and ``nu``.
    Thread-safe: concurrent callers check out distinct workspaces, at
    most one per CPU — a caller beyond that waits for one (it could not
    have run), so scratch memory does not grow with the rank threads
    sharing the plan.  The workspaces are also the budget of the helpers
    that share a large call's units (:mod:`repro.core.cores`).
    """

    def __init__(self, table: np.ndarray, phase: np.ndarray, nu: int) -> None:
        mu, b, p = table.shape
        self.mu, self.b, self.p, self.nu = mu, b, p, nu
        # A group spans at most half of the stencil's ceil(B/nu) chunks,
        # which keeps the band factor K/B below 1.5 (and the gather at
        # ~3x the input); a power of two keeps G*mu a multiple of the
        # BLAS micro-tile and lets power-of-two rank blocks start on the
        # grid.  B < 2*nu (the B = 2, nu = 1 scale family) degenerates
        # to one chunk per group, an unbanded (mu x B) product.
        self.group = g = 1 << (max(1, -(-b // nu) // 2).bit_length() - 1)
        self.tile_k = (g - 1) * nu + b
        self.tile_n = g * mu
        self.grid = g * _TILE_ROWS
        self.span = (self.grid - 1) * nu + b          # rows one cell reads
        # Scratch of one p, one cell: its tiles and their GEMM output.
        per_cell = 2 * table.itemsize * _TILE_ROWS * (self.tile_k + self.tile_n)
        fit = max(1, _SCRATCH_BUDGET // per_cell)
        self.p_step = -(-p // -(-p // (_P_SPLIT * fit)))
        self.cells = max(1, fit // p)
        # fft-p panel: whole steps of P rows, as many as fit the panel budget.
        step_cols = self.cells * self.grid * mu
        step_bytes = p * step_cols * phase.itemsize
        self.panel_cols = step_cols * max(1, _PANEL_BUDGETS * _SCRATCH_BUDGET // step_bytes)
        # banded[p, i*nu + b, i*mu + r] = T[r, b, p] for every chunk i < G,
        # stored (P, N, K): banded[p].T is the GEMM's C-ordered left operand.
        self.banded = np.zeros((p, self.tile_n, self.tile_k), table.dtype).transpose(0, 2, 1)
        by_p = table.transpose(2, 1, 0)
        for i in range(g):
            self.banded[:, i * nu : i * nu + b, i * mu : (i + 1) * mu] = by_p
        # phase[p, i*mu + r, t] = phase[r, p]: one cell's transposed
        # (N, H) tile outputs, so the multiply runs on contiguous rows.
        self.phase = np.repeat(np.tile(phase.T, (1, g))[:, :, None], _TILE_ROWS, axis=2)
        # Workspace slots, last-in first-out so one caller keeps reusing
        # one (warm) workspace; None marks a slot not built yet.
        self._slots: "queue.LifoQueue[_Workspace | None]" = queue.LifoQueue()
        self.cpus = _usable_cpus()
        for _ in range(self.cpus):
            self._slots.put(None)

    @property
    def table_bytes(self) -> int:
        return self.banded.nbytes + self.phase.nbytes

    def checkout(self, block: bool = True) -> "_Workspace | None":
        """A free workspace (built on first use).  With *block* false,
        None when every workspace is in use."""
        try:
            ws = self._slots.get(block)
        except queue.Empty:
            return None
        if ws is None:
            try:
                ws = _Workspace(self)
            except BaseException:
                self._slots.put(None)
                raise
        return ws

    def checkin(self, ws: _Workspace) -> None:
        self._slots.put(ws)

    def panel_units(self, nchunks: int, q0: int) -> list[tuple[int, int]]:
        """The panels of a call: local chunk ranges ``[lo, hi)`` cut where the
        global chunk index is a multiple of the panel width (and grid)."""
        width = self.panel_cols // self.mu
        cuts = [0, *range(width - q0 % width, nchunks, width), nchunks]
        return list(zip(cuts[:-1], cuts[1:]))

    def __call__(
        self, body: np.ndarray, tail: np.ndarray, nchunks: int, q0: int,
        fft_p: Callable[[np.ndarray], np.ndarray] | None = None,
        ws: _Workspace | None = None, conj: bool = False,
    ) -> np.ndarray:
        """``z_t`` of shape ``(P, nchunks*mu)`` for the chunks from global
        chunk *q0*, of ``conj(x)`` when *conj*; *body* ++ *tail* (C-ordered
        ``(rows, P)``) holds the ``(nchunks-1)*nu + B`` rows they read.
        With *fft_p* (a column transform, which may overwrite the pooled
        panel it is given and return it) the result is ``fft_p(z_t)``,
        panel by panel on every CPU with a free workspace
        (:mod:`repro.core.cores`) — or all on *ws*, a workspace the
        calling thread already holds, with no checkout and no helpers."""
        self._check_rows("body", body)
        self._check_rows("tail", tail)
        need = (nchunks - 1) * self.nu + self.b
        if nchunks < 1 or body.shape[0] + tail.shape[0] < need:
            raise ValueError(
                f"body ({body.shape[0]} rows) and tail ({tail.shape[0]} rows) "
                f"are short: {nchunks} chunks read {need} rows"
            )
        out = np.empty((self.p, nchunks * self.mu), dtype=self.phase.dtype)
        pieces = self.panel_units(nchunks, q0)
        # Panels are the units a transform shares; without one, a call
        # is a single unit (its panels in order).
        units = [[piece] for piece in pieces] if fft_p is not None else [pieces]

        def run(ws: _Workspace, unit: list[tuple[int, int]]) -> None:
            for lo, hi in unit:
                self._fill(ws, body, tail, nchunks, q0, lo, hi, out, fft_p, conj)

        if ws is None:
            cores.fan_out(self, units, run)
        else:
            for unit in units:
                run(ws, unit)
        return out

    def _check_rows(self, name: str, rows: np.ndarray) -> None:
        """The gather views address *rows* through ``(P, 1)`` strides."""
        dtype = self.phase.dtype
        if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.shape[1] == self.p
                and rows.dtype == dtype and rows.flags.c_contiguous):
            raise ValueError(f"{name} must be C-contiguous ({self.p}-column, {dtype}) rows, "
                             f"got {getattr(rows, 'dtype', type(rows))} {np.shape(rows)}")

    def _fill(
        self, ws: _Workspace, body: np.ndarray, tail: np.ndarray, nchunks: int,
        q0: int, lo: int, hi: int, out: np.ndarray,
        fft_p: Callable[[np.ndarray], np.ndarray] | None, conj: bool,
    ) -> None:
        """Chunks ``[lo, hi)`` of the call (one panel): convolve the grid
        cells that hold them into the workspace panel, transform it with
        *fft_p* if given (in place where the backend can), and copy the
        owned columns into *out*."""
        mu, nu, grid, h, n_out = self.mu, self.nu, self.grid, _TILE_ROWS, self.tile_n
        w = grid * mu                        # columns of one cell
        s0 = lo - (q0 + lo) % grid           # local chunk the first cell starts at
        ncell = -(-(hi - s0) // grid)
        if ws.panel is None or ws.panel.shape[1] < ncell * w:
            ws.panel = np.empty((self.p, ncell * w), dtype=self.phase.dtype)
        panel = ws.panel[:, : ncell * w]
        gather = np.conjugate if conj else lambda src, out: np.copyto(out, src)
        nbody = body.shape[0]
        for p0 in range(0, self.p, self.p_step):
            p1 = min(p0 + self.p_step, self.p)
            n = p1 - p0
            tables = self.banded[p0:p1, None].transpose(0, 1, 3, 2)
            phase = self.phase[p0:p1, None]
            for c in range(0, ncell, self.cells):
                cells = min(self.cells, ncell - c)
                s = s0 + c * grid
                # Interior cells [i0, i1): owned whole, rows in the body.
                i0 = 1 if s < 0 else 0
                last = (nbody - self.span - s * nu) // (grid * nu) + 1
                i1 = max(i0, min(cells, (nchunks - s) // grid, last))
                if i1 > i0:
                    src = self._windows(body[:, p0:p1], (s + i0 * grid) * nu, i1 - i0)
                    gather(src, out=ws.tiles[:n, i0:i1])
                for i in [*range(i0), *range(i1, cells)]:
                    st = self._stitch(ws, body, tail, s + i * grid, nchunks, p0, p1)
                    gather(self._windows(st, 0, 1), out=ws.tiles[:n, i : i + 1])
                z = panel[p0:p1, c * w : (c + cells) * w]
                real = self.banded.dtype
                np.matmul(tables, ws.tiles[:n, :cells].view(real),
                          out=z.view(real).reshape(n, cells, n_out, 2 * h))
                z = z.reshape(n, cells, n_out, h)
                np.multiply(z, phase, out=z)
        z = panel if fft_p is None else fft_p(panel)
        z = z.reshape(self.p, ncell, n_out, h).transpose(0, 1, 3, 2)
        # Whole owned cells [j0, j1) in one copy; the rest column by column.
        j0 = 1 if s0 < lo else 0
        j1 = max(j0, (hi - s0) // grid)
        if j1 > j0:
            dst = out[:, (s0 + j0 * grid) * mu : (s0 + j1 * grid) * mu]
            dst.reshape(self.p, j1 - j0, h, n_out)[...] = z[:, j0:j1]
        for j in [*range(j0), *range(j1, ncell)]:
            s = s0 + j * grid
            a, b = max(s, lo), min(s + grid, hi)
            out[:, a * mu : b * mu] = z[:, j].reshape(self.p, w)[:, (a - s) * mu : (b - s) * mu]

    def _windows(self, rows: np.ndarray, row: int, cells: int) -> np.ndarray:
        """Stencil windows ``(p, cell, K, H)`` of *cells* grid cells over
        the ``(rows, p)`` array *rows*, the first cell starting at *row*."""
        rs, it = rows.strides
        step = self.nu * rs
        return as_strided(
            rows[row:], shape=(rows.shape[1], cells, self.tile_k, _TILE_ROWS),
            strides=(it, self.grid * step, rs, self.group * step), writeable=False,
        )

    def _stitch(self, ws, body, tail, s, nchunks, p0, p1) -> np.ndarray:
        """The rows of the cell starting at local chunk *s*, columns
        ``[p0, p1)``, in the stitch buffer: what its owned chunks read,
        from the body and the tail, and zeros around it."""
        nbody = body.shape[0]
        lo, hi = max(s, 0), min(s + self.grid, nchunks)
        u0, u1 = lo * self.nu, (hi - 1) * self.nu + self.b   # rows owned chunks read
        st = ws.stitch[:, : p1 - p0]
        r = s * self.nu                                      # row of the cell's start
        st[: u0 - r] = 0
        st[u1 - r :] = 0
        a, b = min(u1, nbody), max(u0, nbody)
        if a > u0:
            st[u0 - r : a - r] = body[u0:a, p0:p1]
        if u1 > b:
            st[b - r : u1 - r] = tail[b - nbody : u1 - nbody, p0:p1]
        return st
