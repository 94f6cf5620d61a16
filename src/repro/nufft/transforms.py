"""Type-1 and type-2 NUFFT kernels plus their direct references.

Conventions (FINUFFT-compatible up to normalisation):

- type 1 (nonuniform -> uniform):
  ``y_k = sum_j a_j exp(-2*pi*i*k*t_j)``, ``k = -K/2 .. K/2-1``;
- type 2 (uniform -> nonuniform):
  ``f_j = sum_k c_k exp(+2*pi*i*k*t_j)`` — the adjoint of type 1 up to
  conjugation, computed with the same kernel.

Both are three-stage pipelines mirroring SOI's structure: spread (the
``W x`` convolution), one FFT on the oversampled grid, demodulate by
``1/W_hat`` (the ``W_hat^-1`` diagonal).
"""

from __future__ import annotations

import numpy as np

from ..dft.backends import DEFAULT_BACKEND, FftBackend, get_backend
from .plan import NufftPlan

__all__ = ["nufft1", "nufft2", "nudft1", "nudft2"]


def _check_points_data(t: np.ndarray, data: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(t, dtype=np.float64)
    data = np.ascontiguousarray(data, dtype=np.complex128)
    if t.shape != data.shape or t.ndim != 1:
        raise ValueError(f"{name}: points and data must be equal-length 1-D arrays")
    return t, data


def nufft1(
    t: np.ndarray,
    a: np.ndarray,
    plan: NufftPlan,
    backend: str | FftBackend = DEFAULT_BACKEND,
) -> np.ndarray:
    """Type-1 NUFFT: Fourier modes of scattered point masses.

    ``y_k ~= sum_j a_j exp(-2*pi*i*k*t_j)`` for ``k = -K/2..K/2-1``,
    accurate to the plan's window design.  O(N*w + n_grid log n_grid).
    """
    t, a = _check_points_data(t, a, "nufft1")
    be = get_backend(backend)
    idx, vals = plan.kernel_values(t)
    grid = np.zeros(plan.n_grid, dtype=np.complex128)
    np.add.at(grid, idx.ravel(), (a[:, None] * vals).ravel())
    spectrum = be.fft(grid)
    k = np.arange(-plan.k_modes // 2, plan.k_modes // 2)
    return spectrum[np.mod(k, plan.n_grid)] / plan.demod


def nufft2(
    t: np.ndarray,
    c: np.ndarray,
    plan: NufftPlan,
    backend: str | FftBackend = DEFAULT_BACKEND,
) -> np.ndarray:
    """Type-2 NUFFT: evaluate a K-mode Fourier series at scattered points.

    ``f_j ~= sum_k c_k exp(+2*pi*i*k*t_j)`` with ``c`` indexed
    ``k = -K/2..K/2-1``.
    """
    t = np.asarray(t, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.complex128)
    if t.ndim != 1:
        raise ValueError("points must be one-dimensional")
    if c.shape != (plan.k_modes,):
        raise ValueError(f"expected {plan.k_modes} modes, got {c.shape}")
    be = get_backend(backend)
    padded = np.zeros(plan.n_grid, dtype=np.complex128)
    k = np.arange(-plan.k_modes // 2, plan.k_modes // 2)
    padded[np.mod(k, plan.n_grid)] = c / plan.demod
    # u_m = sum_k (c_k / W_hat) e^{+2 pi i k m / n}: unscaled inverse FFT.
    u = be.ifft(padded) * plan.n_grid
    idx, vals = plan.kernel_values(t)
    return np.sum(u[idx] * vals, axis=1)


def nudft1(t: np.ndarray, a: np.ndarray, k_modes: int) -> np.ndarray:
    """Direct O(N*K) reference for :func:`nufft1`."""
    t, a = _check_points_data(t, a, "nudft1")
    k = np.arange(-k_modes // 2, k_modes // 2)
    return np.exp(-2j * np.pi * k[:, None] * t[None, :]) @ a


def nudft2(t: np.ndarray, c: np.ndarray, k_modes: int) -> np.ndarray:
    """Direct O(N*K) reference for :func:`nufft2`."""
    t = np.asarray(t, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.complex128)
    k = np.arange(-k_modes // 2, k_modes // 2)
    return np.exp(2j * np.pi * t[:, None] * k[None, :]) @ c
