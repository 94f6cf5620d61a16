"""Block data distribution helpers for the distributed FFTs.

Both algorithms use the natural contiguous block distribution: rank i of
R owns ``x[i*N/R : (i+1)*N/R]`` on input and the same index range of
``y`` on output ("in-order": no rank ever holds out-of-order data the
caller must untangle — the property that forces the triple all-to-all
on standard algorithms, Section 1).
"""

from __future__ import annotations

import numpy as np

from ..utils import check_positive_int, require

__all__ = ["block_size", "split_blocks"]


def block_size(n: int, nranks: int) -> int:
    """Per-rank block length; the distribution requires ``nranks | n``."""
    n = check_positive_int(n, "n")
    nranks = check_positive_int(nranks, "nranks")
    require(n % nranks == 0, f"nranks={nranks} must divide n={n}")
    return n // nranks


def split_blocks(x: np.ndarray, nranks: int) -> list[np.ndarray]:
    """Split a global vector into per-rank contiguous blocks (views)."""
    size = block_size(len(x), nranks)
    return [x[r * size : (r + 1) * size] for r in range(nranks)]
