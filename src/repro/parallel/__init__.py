"""Distributed FFT algorithms on the simulated message-passing runtime.

- :func:`soi_fft_distributed` — the paper's contribution: ONE all-to-all;
- :func:`rfft_distributed` — real input via the packed half-length
  trick: the one all-to-all at HALF the volume;
- :func:`transpose_fft_distributed` — the MKL/FFTW/FFTE-class baseline:
  THREE all-to-alls (six-step algorithm);
- :func:`allgather_fft_distributed` — the replicate-everything strawman.

All four are in-order block-distributed SPMD collectives over a
:class:`repro.simmpi.Communicator`.
"""

from .allgather import allgather_fft_distributed
from .distribution import block_size, split_blocks
from .real_dist import rfft_distributed
from .resilience import SoiResilience
from .soi_dist import (
    soi_fft_distributed,
    soi_ifft_distributed,
    soi_rank_layout,
)
from .transpose import choose_grid, distributed_transpose, transpose_fft_distributed

__all__ = [
    "allgather_fft_distributed",
    "block_size",
    "split_blocks",
    "SoiResilience",
    "rfft_distributed",
    "soi_fft_distributed",
    "soi_ifft_distributed",
    "soi_rank_layout",
    "choose_grid",
    "distributed_transpose",
    "transpose_fft_distributed",
]
