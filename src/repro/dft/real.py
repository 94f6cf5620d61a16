"""Real-input FFT via the packed half-length complex transform.

Many of the workloads the paper's introduction motivates (signal
filtering, spectral analysis of measured data) start from real samples.
``rfft`` computes the ``n//2 + 1`` non-redundant spectrum bins of a
real signal; for even lengths it uses one complex FFT of length ``n/2``
plus an O(n) untangling pass — half the work of a full complex
transform — and for odd lengths it falls back to one full-length
complex transform, keeping the non-redundant bins.  Both directions
route their internal complex transforms through the plan cache
(:func:`repro.dft.cache.plan_for`), so repeated real transforms of one
size ride the create-once/execute-many hot path like the complex
one-shots.
"""

from __future__ import annotations

import numpy as np

from .cache import plan_for
from .twiddle import twiddles

__all__ = ["rfft", "irfft"]


def rfft(x: np.ndarray) -> np.ndarray:
    """Non-redundant spectrum of a real signal over the last axis.

    Returns ``n//2 + 1`` complex bins matching ``numpy.fft.rfft`` for
    any length.  Even lengths pack consecutive (even, odd) sample pairs
    into one complex vector of length ``n/2``, transform it once, and
    untangle the two interleaved real spectra; odd lengths (where the
    packing trick needs a pair for every sample) transform the real
    signal directly and keep the first ``n//2 + 1`` bins.
    """
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise TypeError("rfft expects real input; use fft for complex data")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    n = arr.shape[-1]
    if n % 2:
        # Odd length: no (even, odd) pairing exists; one full-length
        # complex transform through the cached mixed-radix plan.
        full = plan_for(n, arr.dtype).execute(arr, inverse=False)
        return np.ascontiguousarray(full[..., : n // 2 + 1])
    half = n // 2
    # The (even, odd) sample pairs are the complex vector's memory already.
    packed = arr.view(np.complex128)
    z = plan_for(half, packed.dtype).execute(packed, inverse=False)
    # Spectra of the even/odd interleaved streams, using Z_{n/2} = Z_0:
    # fe + w*fo with fe = 0.5*(zfull + zrev) and fo = -0.5j*(zfull - zrev),
    # each step the same ufunc on the same operands as the expression,
    # written over three arrays instead of eight temporaries.
    zfull = np.concatenate([z, z[..., :1]], axis=-1)
    zrev = np.conjugate(zfull[..., ::-1])
    out = np.subtract(zfull, zrev)
    np.multiply(-0.5j, out, out=out)
    np.multiply(twiddles(n, -1)[: half + 1], out, out=out)
    np.add(zfull, zrev, out=zfull)
    np.multiply(0.5, zfull, out=zfull)
    return np.add(zfull, out, out=out)


def irfft(spec: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of :func:`rfft`: real signal from ``n//2 + 1`` bins.

    *n* defaults to the even length ``2 * (bins - 1)``; pass the odd
    ``2 * bins - 1`` to invert an odd-length :func:`rfft`.  The routine
    assumes (and, for safety, enforces numerically via the final
    ``.real``) the Hermitian symmetry that makes the output real.
    """
    s = np.ascontiguousarray(spec, dtype=np.complex128)
    bins = s.shape[-1]
    if bins < 2:
        raise ValueError("irfft needs at least two spectrum bins")
    if n is None:
        n = 2 * (bins - 1)
    if n not in (2 * (bins - 1), 2 * bins - 1):
        raise ValueError(
            f"n={n} inconsistent with {bins} spectrum bins "
            f"(expected {2 * (bins - 1)} or {2 * bins - 1})"
        )
    if n % 2:
        # Odd length: rebuild the redundant bins X_{n-k} = conj(X_k) and
        # invert the full spectrum (the mirror of rfft's odd fallback).
        full = np.concatenate([s, np.conj(s[..., :0:-1])], axis=-1)
        return np.ascontiguousarray(
            plan_for(n, full.dtype).execute(full, inverse=True).real
        )
    half = n // 2
    srev = np.conj(s[..., ::-1])
    fe = 0.5 * (s + srev)
    # From X_k = Fe_k + w_k*Fo_k and conj(X_{n/2-k}) = Fe_k - w_k*Fo_k.
    fo = 0.5 * (s - srev) * np.conj(twiddles(n, -1)[: half + 1])
    z = fe[..., :half] + 1j * fo[..., :half]
    packed = plan_for(half, z.dtype).execute(z, inverse=True)
    out = np.empty(s.shape[:-1] + (n,), dtype=np.float64)
    out[..., 0::2] = packed.real
    out[..., 1::2] = packed.imag
    return out
