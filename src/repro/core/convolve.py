"""The SOI convolution kernel ``z = W x`` as real banded tile GEMMs.

The plan's coefficient tensor factors as ``C[r, b, p] = phase[r, p] *
T[r, b, p]`` with ``T`` real (:meth:`SoiPlan._coefficient_tables`), so

    ``z[q*mu + r, p] = phase[r, p] * sum_b T[r, b, p] * u_p[q*nu + b]``

where ``u_p[k] = x[k*P + p]`` is the input seen by column ``p``.  The
sum is a real filter applied to the real and imaginary parts of ``u_p``
separately — ``4*N'*B`` flops instead of the ``8*N'*B`` of a complex
contraction — and the unit-modulus phase is applied once per output.

Per step (a range of ``p`` and a band of chunks) the kernel

1. transposes the band's extended-input rows into per-``p`` rows;
2. copies the overlapping stencil windows into fixed-shape planar
   (re / im) tiles, one tile row per *group* of ``G`` consecutive
   chunks (``K = (G-1)*nu + B`` samples in, ``G*mu`` outputs out);
3. multiplies every tile by the per-``p`` banded real matrix with one
   batched ``np.matmul`` (dgemm, or sgemm for complex64 plans);
4. interleaves the two planes, applies the phase and writes straight
   into the ``(P, M')`` layout the fused ``fft_tt`` kernels consume.

**The fft-p panel.**  Given the plan's column transform (``fft_p``,
the ``I_M' (x) F_P`` stage), the kernel also runs that stage while the
convolution output is still in cache: each step's phase-multiplied band
goes into a pooled ``(P, panel_cols)`` panel of whole steps, and a full
panel is transformed and copied into the ``(P, M')`` result.  A
column transform over the whole ``(64, 20480)`` array at N = 2^20 is
~2x slower than over panels: its rows sit ``5 * 2^16`` bytes apart,
which maps a column onto a handful of cache sets.  When the whole
output fits one panel, or a step does not cover all ``P`` columns, the
output array is the panel and ``fft_p`` runs once at the end — the
unfused sequence.  Either way the values equal ``fft_p`` of the whole
unfused output bit for bit, because the transform is computed column by
column: a column slice gets the bits the whole array gets (a contract
of :class:`~repro.dft.backends.FftBackend`, re-proved by the tests).

**Panels on every CPU.**  A paneled call is cut into panel units
(:meth:`ConvolveKernel.panel_units`): chunk ranges cut where the
*global* chunk index is a multiple of the panel width, which is a
multiple of the grid below.  Each unit convolves into the panel of the
workspace its thread checked out and writes its transform into its own
column range of the output, so the units run on every CPU that has a
free workspace (:mod:`repro.core.cores`), and no unit can tell how
many did.

**Bitwise equality of sub-ranges, by construction.**  Every GEMM call
has the same ``(2H, K) @ (K, G*mu)`` shape whatever the caller's chunk
count, and tiles sit on a grid of ``G*H``-chunk cells anchored at
*global* chunk 0: the caller passes the global index ``q0`` of its
first chunk, cells it only partly owns are zero-padded, and so a rank,
an overlap slice and the sequential call all compute a given output
element at the same row and column of an identically-shaped call.  A
BLAS that picks its summation order from the problem shape (OpenBLAS
does, below ``M*N*K ~ 1e6``) therefore cannot tell the callers apart.
Zero padding is exact for finite data: a sample outside an output's
stencil only ever meets a structural zero of the banded matrix.  (A
NaN or Inf there turns the zero into NaN, so a non-finite input can
poison up to ``G`` chunks around it rather than only those that read
it; the result is non-finite either way.)

Group width, step shape, panel width and pool size are derived from the
plan's ``(B, nu, mu, P, itemsize)``, a fixed scratch budget and the CPU
count.  The output is always a fresh array, written by whichever
threads ran the units, so nothing a caller holds aliases pooled memory.
"""

from __future__ import annotations

import os
import queue
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import cores

__all__ = ["ConvolveKernel"]

#: Tile rows (chunk groups) per plane in one GEMM call: ``M = 2 * rows``.
_TILE_ROWS = 8
#: Scratch budget per workspace.  One step covers every column of as
#: many grid cells as fit; a step is five NumPy calls that each drop and
#: retake the GIL, so with rank threads sharing one interpreter a few
#: large steps beat many small ones.  Columns are split only when one
#: cell alone would take more than ``_P_SPLIT`` budgets (splitting P = 64
#: costs ~7% single-threaded and doubles a rank's steps).
_SCRATCH_BUDGET = 1 << 20
_P_SPLIT = 4
#: The fft-p panel holds as many whole steps of output as fit in this
#: many scratch budgets (6 steps at N = 2^20, P = 64; panels of 1 to 6
#: steps measured alike there, 12 steps ~10% slower).
_PANEL_BUDGETS = 2


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


class _Workspace:
    """Scratch for one step: ``p_step`` columns by ``cells`` grid cells of
    ``H`` tile rows each.

    ``rows`` holds the transposed input, ``tiles`` its stencil windows
    split into planes, ``prod`` the GEMM output and ``band`` the same
    values interleaved; ``tile_src`` and ``band_planes`` are the strided
    views that make each of those copies one call.  ``panel`` (the fft-p
    panel) is built on first use, as only large calls need it.
    """

    __slots__ = ("rows", "tile_src", "tiles", "gemm_in", "prod", "gemm_out",
                 "band_planes", "band", "panel")

    def __init__(self, k: "ConvolveKernel") -> None:
        real, it = k.banded.dtype, k.phase.itemsize
        ps, cells, h = k.p_step, k.cells, _TILE_ROWS
        samples = (cells * k.grid - 1) * k.nu + k.b
        self.rows = np.empty((ps, samples), dtype=k.phase.dtype)
        # tile_src[p, c, plane, t, :] = plane of rows[p, s : s + K],
        # s = (c*H + t) * G * nu
        self.tile_src = as_strided(
            self.rows.view(real),
            shape=(ps, cells, 2, h, k.tile_k),
            strides=(samples * it, k.grid * k.nu * it, it // 2, k.group * k.nu * it, it),
            writeable=False,
        )
        self.tiles = np.empty((ps, cells, 2, h, k.tile_k), dtype=real)
        self.gemm_in = self.tiles.reshape(ps, cells, 2 * h, k.tile_k)
        self.prod = np.empty((ps, cells, 2, h * k.tile_n), dtype=real)
        self.gemm_out = self.prod.reshape(ps, cells, 2 * h, k.tile_n)
        self.band = np.empty((ps, cells * h * k.tile_n), dtype=k.phase.dtype)
        # band_planes[p, c, plane, j] = plane of band[p, c*H*N + j]
        self.band_planes = as_strided(
            self.band.view(real),
            shape=self.prod.shape,
            strides=(self.band.strides[0], h * k.tile_n * it, it // 2, it),
        )
        self.panel: np.ndarray | None = None


class ConvolveKernel:
    """Banded real tables of one plan plus the pooled scratch to apply them.

    Parameters are the plan's real table ``T`` of shape ``(mu, B, P)``,
    its ``(mu, P)`` phase (both already at the plan's precision) and
    ``nu``.  Thread-safe: concurrent callers check out distinct
    workspaces, at most one per CPU — a caller beyond that waits for one
    to come back, which costs nothing (it could not have run) and keeps
    scratch memory independent of how many rank threads share the plan.
    The same workspaces are the budget of the helpers that share a
    large call's units (:mod:`repro.core.cores`): a helper joins only
    with one that is free.
    """

    def __init__(self, table: np.ndarray, phase: np.ndarray, nu: int) -> None:
        mu, b, p = table.shape
        self.mu, self.b, self.p, self.nu = mu, b, p, nu
        # A group spans at most half of the stencil's ceil(B/nu) chunks,
        # which keeps the band factor K/B below 1.5 (and the tile copy
        # at ~3x the input); a power of two keeps G*mu a multiple of the
        # BLAS micro-tile and lets power-of-two rank blocks start on the
        # grid.  B < 2*nu (the B = 2, nu = 1 scale family) degenerates
        # to one chunk per group, an unbanded (B x mu) product.
        self.group = g = 1 << (max(1, -(-b // nu) // 2).bit_length() - 1)
        self.tile_k = (g - 1) * nu + b
        self.tile_n = g * mu
        self.grid = g * _TILE_ROWS
        per_cell = table.itemsize * (             # scratch of one p, one cell
            2 * self.grid * nu                    # rows
            + 2 * _TILE_ROWS * self.tile_k        # tiles
            + 4 * _TILE_ROWS * self.tile_n        # prod + band
        )
        fit = max(1, _SCRATCH_BUDGET // per_cell)
        self.p_step = -(-p // -(-p // (_P_SPLIT * fit)))
        self.cells = max(1, fit // p)
        # fft-p panel: whole steps of P rows, as many as fit the panel budget.
        step_cols = self.cells * self.grid * mu
        step_bytes = p * step_cols * phase.itemsize
        self.panel_cols = step_cols * max(1, _PANEL_BUDGETS * _SCRATCH_BUDGET // step_bytes)
        # banded[p, i*nu + b, i*mu + r] = T[r, b, p] for every chunk i < G
        self.banded = np.zeros((p, self.tile_k, self.tile_n), dtype=table.dtype)
        by_p = table.transpose(2, 1, 0)
        for i in range(g):
            self.banded[:, i * nu : i * nu + b, i * mu : (i + 1) * mu] = by_p
        # The (P, mu) phase repeated along a step's whole output row.
        self.phase = np.tile(phase.T, (1, self.cells * self.grid))
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
        """The fft-p panels of a call: local chunk ranges ``[lo, hi)`` cut
        where the global chunk index is a multiple of the panel width
        (itself a multiple of :attr:`grid`).  One range when steps do
        not cover all ``P`` columns, as such calls are never paneled."""
        if self.p_step < self.p:
            return [(0, nchunks)]
        width = self.panel_cols // self.mu
        cuts = [0, *range(width - q0 % width, nchunks, width), nchunks]
        return list(zip(cuts[:-1], cuts[1:]))

    def __call__(
        self,
        src: np.ndarray,
        nchunks: int,
        q0: int,
        fft_p: Callable[[np.ndarray], np.ndarray] | None = None,
        ws: _Workspace | None = None,
    ) -> np.ndarray:
        """``z_t`` of shape ``(P, nchunks*mu)`` for the chunks starting at
        global chunk *q0*; *src* is the ``((nchunks-1)*nu + B, P)`` block
        of extended-input rows those chunks read.  With *fft_p* (a
        column transform of 2-D arrays) the result is ``fft_p(z_t)``,
        computed panel by panel when it spans more than one panel — on
        every CPU with a free workspace (:mod:`repro.core.cores`), or,
        given *ws* (a workspace the calling thread already holds), all
        on that one in order, with no checkout and no helpers."""
        out = np.empty((self.p, nchunks * self.mu), dtype=self.phase.dtype)
        units = self.panel_units(nchunks, q0) if fft_p is not None else [(0, nchunks)]
        paneled = len(units) > 1   # else the output is the panel
        mu, nu = self.mu, self.nu

        def panel(ws: _Workspace, unit: tuple[int, int]) -> None:
            lo, hi = unit
            z = out
            if paneled:
                if ws.panel is None:
                    ws.panel = np.empty((self.p, self.panel_cols), dtype=out.dtype)
                z = ws.panel[:, : (hi - lo) * mu]
            self._fill(ws, src[lo * nu :], hi - lo, q0 + lo, z)
            if paneled:
                out[:, lo * mu : hi * mu] = fft_p(z)

        if ws is None:
            cores.fan_out(self, units, panel)
        else:
            for unit in units:
                panel(ws, unit)
        return out if paneled or fft_p is None else fft_p(out)

    def _fill(
        self, ws: _Workspace, src: np.ndarray, nchunks: int, q0: int, z: np.ndarray
    ) -> None:
        """Write ``z_t`` of the *nchunks* chunks from global chunk *q0*
        into the ``(P, nchunks*mu)`` array *z*."""
        mu, nu, grid = self.mu, self.nu, self.grid
        # p outermost: one step's banded tables stay cached across all
        # of the caller's bands.
        for p0 in range(0, self.p, self.p_step):
            p1 = min(p0 + self.p_step, self.p)
            n = p1 - p0
            tables, phase = self.banded[p0:p1, None], self.phase[p0:p1]
            # c0: local index of the chunk a band starts at (negative
            # when the global grid starts the band before this caller).
            for c0 in range(-(q0 % grid), nchunks, self.cells * grid):
                lo, hi = max(c0, 0), min(c0 + self.cells * grid, nchunks)
                cells = -(-(hi - c0) // grid)
                u0 = (lo - c0) * nu
                u1 = u0 + (hi - 1 - lo) * nu + self.b
                end = (cells * grid - 1) * nu + self.b
                ws.rows[:n, :u0] = 0
                ws.rows[:n, u1:end] = 0
                ws.rows[:n, u0:u1] = src[lo * nu : lo * nu + u1 - u0, p0:p1].T
                np.copyto(ws.tiles[:n, :cells], ws.tile_src[:n, :cells])
                np.matmul(ws.gemm_in[:n, :cells], tables, out=ws.gemm_out[:n, :cells])
                np.copyto(ws.band_planes[:n, :cells], ws.prod[:n, :cells])
                a = (lo - c0) * mu
                b = a + (hi - lo) * mu
                np.multiply(
                    ws.band[:n, a:b], phase[:, a:b], out=z[p0:p1, lo * mu : hi * mu]
                )
