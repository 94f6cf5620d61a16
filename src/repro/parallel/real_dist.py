"""Distributed real-input SOI FFT (the packed half-length trick at scale).

The sequential :func:`repro.dft.real.rfft` computes the ``N//2 + 1``
non-redundant bins of a real signal with ONE complex transform of length
``N/2``.  This module lifts that to the distributed SOI pipeline:

1. **pack** (local, no communication) — each rank owns ``2 * N/2/R``
   consecutive real samples, so its consecutive (even, odd) pairs ARE a
   contiguous block of the global packed complex vector: ``z_local =
   x[0::2] + 1j * x[1::2]`` needs no exchange at all.
2. **half-length SOI FFT** — :func:`soi_fft_distributed` on a plan of
   size ``N/2``.  The one all-to-all therefore moves ``(1+beta) * N/2``
   points instead of ``(1+beta) * N``: the real-input path halves THE
   exchange of the paper's algorithm.
3. **untangle** (phase ``"untangle"``) — the O(N) spectrum separation
   ``X[k] = Fe[k] + w_N^k Fo[k]`` needs ``conj(Z[N/2 - k])`` for every
   locally-owned ``k``, i.e. the *mirror* block.  Rank ``i`` swaps its
   whole Z-block with rank ``R-1-i`` (one pairwise exchange, ``N/2/R``
   points), plus a one-element ring for the block-boundary bin and one
   extra element rank 0 sends the last rank for the Nyquist bin.

Output layout matches the input: rank ``i`` returns spectrum bins
``[i * N/2/R, (i+1) * N/2/R)`` and the last rank appends bin ``N/2``,
so concatenating all ranks' outputs reproduces ``numpy.fft.rfft`` (to
the plan's SOI accuracy).  Total untangle traffic is ~``N/2`` points —
asymptotically negligible next to the all-to-all it halves.
"""

from __future__ import annotations

import numpy as np

from ..core.plan import SoiPlan
from ..dft.backends import DEFAULT_BACKEND, FftBackend
from ..dft.twiddle import twiddles
from ..simmpi.comm import Communicator
from ..utils import require
from .soi_dist import TAGS, soi_fft_distributed, soi_rank_layout

__all__ = ["rfft_distributed"]


def rfft_distributed(
    comm: Communicator,
    x_local: np.ndarray,
    plan: SoiPlan,
    backend: str | FftBackend = DEFAULT_BACKEND,
    **soi_kwargs,
) -> np.ndarray:
    """Distributed real-input FFT; *plan* is for the HALF length ``N/2``.

    Each rank passes its ``2 * plan.n / R`` consecutive real samples and
    receives its in-order block of ``plan.n / R`` spectrum bins (the
    last rank gets one extra: the Nyquist bin ``X[N/2]``), matching
    ``numpy.fft.rfft`` of the concatenated input to the plan's SOI
    accuracy.  Collective; extra keyword arguments (``overlap=``,
    ``resilience=``, ...) pass through to
    :func:`soi_fft_distributed`.
    """
    nranks = comm.size
    layout = soi_rank_layout(plan, nranks)
    hblk = layout["block"]  # complex points per rank, = (N/2)/R
    n2 = plan.n
    n = 2 * n2
    arr = np.asarray(x_local)
    require(
        not np.iscomplexobj(arr),
        "rfft_distributed expects real input; use soi_fft_distributed for complex",
    )
    require(
        arr.shape == (2 * hblk,),
        f"rank {comm.rank}: expected local block of {2 * hblk} real samples, "
        f"got {arr.shape}",
    )
    real_dtype = np.float32 if plan.dtype == np.complex64 else np.float64
    arr = np.ascontiguousarray(arr, dtype=real_dtype)

    # -- 1. pack: consecutive (even, odd) pairs -> complex, no comm. ------
    packed = arr[0::2] + 1j * arr[1::2]

    # -- 2. one half-length SOI FFT (THE all-to-all, at half volume). -----
    z_local = soi_fft_distributed(comm, packed, plan, backend=backend, **soi_kwargs)

    # -- 3. untangle: separate the two interleaved real spectra. ----------
    # X[k] = Fe[k] + w^k Fo[k] with Fe = (Z[k] + conj(Z[-k])) / 2 and
    # Fo = -i (Z[k] - conj(Z[-k])) / 2, indices mod N/2.  Rank i owns
    # k in [i*hblk, (i+1)*hblk); the mirror indices N/2 - k live in rank
    # R-1-i's block (offset by one) plus the first element of rank
    # (R-i) % R — hence one pairwise block swap and a one-element ring.
    rank = comm.rank
    with comm.phase("untangle"):
        partner = nranks - 1 - rank
        if partner == rank:
            z_mirror = z_local
        else:
            z_mirror = comm.sendrecv(
                z_local, dest=partner, source=partner, tag=TAGS["mirror"]
            )
        edge_peer = (nranks - rank) % nranks
        if edge_peer == rank:
            z_edge = z_local[0]
        else:
            z_edge = comm.sendrecv(
                z_local[0:1], dest=edge_peer, source=edge_peer, tag=TAGS["edge"]
            )[0]
        z_nyq = None
        if rank == nranks - 1:
            z_nyq = (
                z_local[0]
                if nranks == 1
                else comm.recv(0, tag=TAGS["nyquist"])[0]
            )
        if rank == 0 and nranks > 1:
            comm.send(z_local[0:1], nranks - 1, tag=TAGS["nyquist"])

    # Mirror vector for the local bins: zrev[t] = Z[(N/2 - (a+t)) % N/2].
    zrev = np.empty(hblk, dtype=plan.dtype)
    zrev[0] = z_edge
    zrev[1:] = z_mirror[:0:-1]
    np.conjugate(zrev, out=zrev)

    # Same scalar formulas as the sequential rfft untangle (real.py).
    fe = 0.5 * (z_local + zrev)
    fo = -0.5j * (z_local - zrev)
    a = rank * hblk
    w = twiddles(n, -1)[a : a + hblk]
    if plan.dtype == np.complex64:
        w = w.astype(np.complex64)
    y_local = fe + w * fo
    if rank == nranks - 1:
        # Nyquist bin X[N/2] = Re(Z[0]) - Im(Z[0]).
        nyq = np.asarray(z_nyq)
        y_local = np.concatenate(
            [y_local, np.asarray([nyq.real - nyq.imag], dtype=plan.dtype)]
        )
    return y_local
