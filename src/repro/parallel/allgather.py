"""Naive all-gather baseline (a "no-transpose" strawman).

The works the paper cites as "no-interprocessor-communication" FFTs
([25, 27]) do not count the cost of every processor accessing the whole
input.  This baseline makes that cost explicit: every rank gathers the
entire vector (O(N * R) total traffic instead of O(N)), computes the
full FFT locally, and keeps its block.  It exists to demonstrate in the
communication-volume benchmark why that approach does not scale —
exactly the paper's argument for dismissing that line of work.
"""

from __future__ import annotations

import numpy as np

from ..dft.backends import DEFAULT_BACKEND, FftBackend, get_backend
from ..simmpi.comm import Communicator
from ..utils import require

__all__ = ["allgather_fft_distributed"]


def allgather_fft_distributed(
    comm: Communicator,
    x_local: np.ndarray,
    n: int,
    backend: str | FftBackend = DEFAULT_BACKEND,
) -> np.ndarray:
    """In-order FFT where every rank replicates the full input.

    Correct and in-order, but moves ``(R-1) * N`` points — compare with
    ``3N`` for the six-step baseline and ``(1+beta) N`` for SOI.
    """
    be = get_backend(backend)
    r = comm.size
    require(n % r == 0, f"ranks={r} must divide n={n}")
    block = n // r
    vec = np.ascontiguousarray(x_local, dtype=np.complex128)
    require(vec.shape == (block,), f"expected {block} local samples, got {vec.shape}")
    with comm.phase("allgather"):
        parts = comm.allgather(vec)
    full = np.concatenate(parts)
    y = be.fft(full)
    return y[comm.rank * block : (comm.rank + 1) * block]
