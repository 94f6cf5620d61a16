"""Bluestein chirp-z FFT for arbitrary (including large-prime) sizes.

Rewrites the DFT as a linear convolution via the identity
``j*k = (j^2 + k^2 - (k-j)^2) / 2``:

    ``X_k = e^(-i*pi*k^2/n) * sum_j (x_j e^(-i*pi*j^2/n)) * e^(+i*pi*(k-j)^2/n)``

The convolution is evaluated circularly at the smallest 7-smooth length
``L >= 2n-1`` (8232 for ``n = 4099``, where the next power of two is
16384) with the GEMM-pass engine of :mod:`repro.dft.engine`, giving
O(n log n) for any n.  Both padded transforms are *forward* transforms:
the inverse one is the forward result read index-reversed, fused into
the final chirp multiply, and its ``1/L`` is folded into the kernel
spectrum — so a size carries one engine, one chirp and one spectrum.

Chirp phases are computed from ``j^2 mod 2n`` (exact integer arithmetic)
rather than ``j^2/n`` in floating point — for n in the millions the
naive form loses several digits to argument reduction, which would
poison the SOI accuracy experiments.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .engine import GemmStockham, inverse_from_forward

__all__ = ["fft_bluestein", "ChirpZ"]


def _padded_length(n: int) -> int:
    """Smallest ``2^a 3^b 5^c 7^d >= n``."""
    best = 1 << (n - 1).bit_length()
    p7 = 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            p3 = p5
            while p3 < best:
                # The smallest power of two lifting p3 to >= n.
                lift = (-(-n // p3) - 1).bit_length()
                best = min(best, p3 << lift)
                p3 *= 3
            p5 *= 5
        p7 *= 7
    return best


class ChirpZ:
    """Forward chirp-z transform of length ``n >= 2`` at dtype *ctype*."""

    def __init__(self, n: int, ctype: np.dtype) -> None:
        # j^2 must fit in int64 for the exact chirp reduction.
        if n >= (1 << 31):
            raise ValueError("bluestein: n too large for exact chirp reduction")
        self.n = n
        self.ctype = np.dtype(ctype)
        self.length = _padded_length(2 * n - 1)
        j = np.arange(n, dtype=np.int64)
        chirp = np.exp(-1j * np.pi * ((j * j) % (2 * n)) / n)
        self._engine = GemmStockham(self.length, self.ctype)
        # Kernel v_j = conj-chirp, laid out circularly for negative lags.
        v = np.zeros((1, self.length), dtype=self.ctype)
        v[0, :n] = np.conj(chirp)
        v[0, self.length - n + 1 :] = np.conj(chirp[:0:-1])
        self.kernel_spectrum = self._engine.forward(v)[0] / self.length
        self.chirp = chirp.astype(self.ctype)
        self.kernel_spectrum.setflags(write=False)
        self.chirp.setflags(write=False)

    def forward(self, x2: np.ndarray) -> np.ndarray:
        """Unscaled forward transform of each row of ``(rows, n)`` *x2*."""
        n, length = self.n, self.length
        padded = np.empty((x2.shape[0], length), dtype=self.ctype)
        np.multiply(x2, self.chirp, out=padded[:, :n])
        padded[:, n:] = 0
        spec = self._engine.forward(padded)
        spec *= self.kernel_spectrum
        # L * ifft(spec)[k] is the forward transform at index -k mod L.
        conv = self._engine.forward(spec)
        out = np.empty((x2.shape[0], n), dtype=self.ctype)
        np.multiply(conv[:, :1], self.chirp[:1], out=out[:, :1])
        np.multiply(conv[:, : length - n : -1], self.chirp[1:], out=out[:, 1:])
        return out


@lru_cache(maxsize=8)
def _chirpz_for(n: int) -> ChirpZ:
    """fft_bluestein's own small cache; an FftPlan owns its ChirpZ
    outright, so dropping a plan drops its tables."""
    return ChirpZ(n, np.dtype(np.complex128))


def fft_bluestein(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """FFT over the last axis via the chirp-z transform (any length).

    Same conventions as ``numpy.fft``: forward unscaled, inverse scaled
    by ``1/n``.
    """
    arr = np.ascontiguousarray(x, dtype=np.complex128)
    n = arr.shape[-1]
    if n == 0:
        raise ValueError("transform length must be positive")
    if n == 1:
        return arr.copy()
    out = _chirpz_for(n).forward(arr.reshape(-1, n))
    if inverse:
        out = inverse_from_forward(out)
    return out.reshape(arr.shape)
