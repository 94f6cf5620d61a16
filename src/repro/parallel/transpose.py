"""The industry-standard baseline: six-step distributed FFT, THREE all-to-alls.

This is the algorithm class behind Intel MKL's, FFTW's and FFTE's
distributed 1-D FFTs (Section 1: "all industry-standard algorithms and
software execute three instances of global transposes").  For
``N = N1 * N2`` viewed as a row-major ``N1 x N2`` matrix distributed by
rows:

1. **transpose-1** (all-to-all): expose columns as rows;
2. length-``N1`` FFTs on the ``N2`` rows (local);
3. twiddle scaling ``w_N^(j2*k1)`` (local);
4. **transpose-2** (all-to-all): back to ``N1 x N2`` rows;
5. length-``N2`` FFTs on the ``N1`` rows (local);
6. **transpose-3** (all-to-all): natural-order output
   (``y[k1 + N1*k2]``), block-distributed.

Index algebra: with ``j = j1*N2 + j2`` and ``k = k1 + N1*k2``,

    ``y[k1 + N1*k2] = sum_j2 w_N^(j2*k1) w_N2^(j2*k2)
                      ( sum_j1 x[j1*N2 + j2] w_N1^(j1*k1) )``

— the textbook decomposition the paper sketches in its Section 2
figure, which "fundamentally requires three all-to-all steps if data
order is to be preserved".
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..dft.backends import DEFAULT_BACKEND, FftBackend, get_backend
from ..dft.flops import fft_flops
from ..simmpi.comm import Communicator
from ..utils import check_positive_int, require

__all__ = ["transpose_fft_distributed", "distributed_transpose", "choose_grid"]

#: The LRU bound: distinct ``(n, n1, n2)`` twiddle tables kept at once.
_MAX_TWIDDLES = 16

_twiddle_lock = threading.Lock()
_twiddles: OrderedDict[tuple[int, int, int], np.ndarray] = OrderedDict()


def _twiddle_table(n: int, n1: int, n2: int) -> np.ndarray:
    """The read-only ``(N2, N1)`` step-3 table ``w_N^(j2*k1)``, built once.

    Every rank of a world (and every later call) shares one table and
    slices its own ``N2/R`` rows.  The exponent is reduced exactly in
    integers, which avoids argument-reduction noise at large N.
    """
    key = (n, n1, n2)
    with _twiddle_lock:
        table = _twiddles.get(key)
        if table is None:
            j2 = np.arange(n2, dtype=np.int64)[:, None]
            k1 = np.arange(n1, dtype=np.int64)[None, :]
            table = np.exp(-2j * np.pi * ((j2 * k1) % n) / n)
            table.flags.writeable = False
            _twiddles[key] = table
            while len(_twiddles) > _MAX_TWIDDLES:
                _twiddles.popitem(last=False)
        _twiddles.move_to_end(key)
        return table


def choose_grid(n: int, nranks: int) -> tuple[int, int]:
    """Pick ``N1 * N2 = n`` with ``nranks | N1`` and ``nranks | N2``,
    as square as possible (balanced local FFT sizes).
    """
    n = check_positive_int(n, "n")
    nranks = check_positive_int(nranks, "nranks")
    require(
        n % (nranks * nranks) == 0,
        f"six-step layout needs nranks^2={nranks * nranks} to divide n={n}",
    )
    core = n // (nranks * nranks)
    # Split the remaining factor as evenly as possible: the largest
    # divisor of core not exceeding sqrt(core).
    best = max(d for d in _divisors(core) if d * d <= core)
    n1 = nranks * best
    n2 = n // n1
    return n1, n2


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(out)


def distributed_transpose(
    comm: Communicator, local: np.ndarray, rows: int, cols: int
) -> np.ndarray:
    """Transpose a row-distributed ``rows x cols`` matrix (one all-to-all).

    *local* is this rank's ``rows/R x cols`` slab; returns the rank's
    ``cols/R x rows`` slab of the transpose.  Implements Fig. 3: a local
    permutation packs the per-destination sub-blocks into one
    ``(R, ..., rows/R, cols/R)`` buffer, ``alltoall_matrix`` moves them
    under the world's schedule, a local permutation re-assembles.

    Leading axes batch: a ``(..., rows/R, cols)`` stack of K slabs
    transposes K matrices through ONE all-to-all of K-times-larger
    messages — the per-matrix element operations (and hence the values)
    are identical to K separate calls, but K-1 synchronisation rounds
    are saved.  This is what lets the transform server coalesce
    distributed FFTs (see :mod:`repro.serve`).
    """
    r = comm.size
    require(rows % r == 0 and cols % r == 0, "ranks must divide both dims")
    rloc = rows // r
    cloc = cols // r
    require(
        local.shape[-2:] == (rloc, cols),
        f"bad slab shape {local.shape} (want (..., {rloc}, {cols}))",
    )
    # sendbuf[d]: (..., rloc, cloc), my rows of rank d's columns.
    sendbuf = np.ascontiguousarray(
        np.moveaxis(local.reshape(*local.shape[:-1], r, cloc), -2, 0)
    )
    pieces = comm.alltoall_matrix(sendbuf)
    # pieces[src]: (..., rloc, cloc) block of rows src*rloc.., my columns.
    return np.concatenate([np.swapaxes(p, -1, -2) for p in pieces], axis=-1)


def transpose_fft_distributed(
    comm: Communicator,
    x_local: np.ndarray,
    n: int,
    backend: str | FftBackend = DEFAULT_BACKEND,
    grid: tuple[int, int] | None = None,
) -> np.ndarray:
    """In-order N-point FFT, block-distributed, via the six-step algorithm.

    Each rank passes its contiguous ``N/R`` input samples and receives
    its contiguous ``N/R`` output bins.  Exactly three all-to-all rounds
    (phases ``transpose-1/2/3`` in the traffic stats) — the baseline the
    paper's Figs. 5, 6 and 8 compare SOI against.

    Leading axes batch: a ``(..., N/R)`` stack of K local blocks
    computes K independent transforms that SHARE the three all-to-all
    epochs (three total, not 3K) and batch every local FFT/twiddle
    stage.  Each transform's arithmetic is element-for-element the same
    as a solo call, so results are bitwise identical — the property the
    serve conformance rows pin down.

    Under ``run_spmd(transport=TransportPolicy(...))`` all THREE
    transposes travel CRC- and sequence-checked, so the reliable
    transport's control traffic is three exchanges' worth where SOI
    pays one: the paper's communication argument extended to
    reliability cost.

    Traced (``run_spmd(trace=)``), the run lands on a virtual timeline
    whose three all-to-all epochs contrast with SOI's one (see
    :mod:`repro.trace`); tracing is bit-transparent.

    The world's exchange schedule (``run_spmd(alltoall_algorithm=)``)
    applies to all THREE transposes — six-step pays the schedule choice
    three times where SOI pays it once.  Bitwise-identical output either
    way.
    """
    be = get_backend(backend)
    r = comm.size
    n1, n2 = grid if grid is not None else choose_grid(n, r)
    require(n1 * n2 == n, f"grid {n1}x{n2} != n={n}")
    require(n1 % r == 0 and n2 % r == 0, "ranks must divide both grid dims")
    block = n // r
    vec = np.ascontiguousarray(x_local, dtype=np.complex128)
    require(
        vec.ndim >= 1 and vec.shape[-1] == block,
        f"expected {block} local samples on the last axis, got {vec.shape}",
    )
    batch = vec.shape[:-1]
    bsz = int(np.prod(batch)) if batch else 1

    # Local slab of the row-major N1 x N2 view (N1/R whole rows).
    a = vec.reshape(*batch, n1 // r, n2)

    # 1. transpose-1: rows j2, columns j1.
    with comm.phase("transpose-1"):
        at = distributed_transpose(comm, a, n1, n2)  # (n2/r, n1)

    # 2. length-N1 FFTs over j1.
    bt = be.fft(at)
    comm.trace_compute("fft-n1", bsz * (n2 // r) * fft_flops(n1))

    # 3. twiddle w_N^(j2*k1), j2 global row: this rank's rows of the
    # shared table.  Not a fresh temporary: NumPy would elide a >= 256
    # KiB temporary into the output, swapping the complex product's
    # operands (and its last bits) in unbatched calls only.
    rows = n2 // r
    bt = bt * _twiddle_table(n, n1, n2)[comm.rank * rows : (comm.rank + 1) * rows]
    comm.trace_compute("twiddle", 8.0 * bsz * (n2 // r) * n1, kind="conv")

    # 4. transpose-2: back to rows k1.
    with comm.phase("transpose-2"):
        c = distributed_transpose(comm, bt, n2, n1)  # (n1/r, n2)

    # 5. length-N2 FFTs over j2.
    d = be.fft(c)
    comm.trace_compute("fft-n2", bsz * (n1 // r) * fft_flops(n2))

    # 6. transpose-3: natural order y[k1 + N1*k2] -> rows k2.
    with comm.phase("transpose-3"):
        dt = distributed_transpose(comm, d, n1, n2)  # (n2/r, n1)
    return dt.reshape(*batch, block)
