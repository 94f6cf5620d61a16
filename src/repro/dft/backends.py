"""Pluggable node-local FFT backends.

The paper's implementation uses Intel MKL FFTs "as building blocks"
(Fig. 2) but nothing in the SOI framework depends on which local FFT is
used.  We mirror that by routing every local transform in
:mod:`repro.core` and :mod:`repro.parallel` through a backend, named
or passed as an :class:`FftBackend` instance:

- ``"numpy"`` — ``numpy.fft`` (pocketfft), standing in for MKL/FFTW as
  an independent high-quality implementation; :data:`DEFAULT_BACKEND`,
  the default of every entry point with a ``backend=`` and of the
  serve layer's ``ServeConfig.default_library``;
- ``"repro"`` — this library's own kernels (:mod:`repro.dft`),
  standing in for a vendor library built from scratch; opt in by name.

One default, picked by measurement: ``numpy.fft`` beats the repro
engine at every complex128 shape the serve layer runs (EXPERIMENTS.md
"One default library").

This module is the one place that decides which library runs and at
what precision: a backend's callables return their result at the
input's precision (see :class:`FftBackend`), so callers above
:mod:`repro.dft` pass arrays and never name a backend or a precision.

Tests run the full pipeline under both backends; agreement between them
is itself a strong correctness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cache import plan_for

#: The node-local FFT library every entry point uses unless told
#: otherwise.  Signature defaults hold this plain string, so
#: ``inspect.signature(fn).parameters["backend"].default`` names it.
DEFAULT_BACKEND = "numpy"

__all__ = [
    "DEFAULT_BACKEND",
    "FftBackend",
    "UnknownBackendError",
    "backend_fft",
    "backend_fft_tt",
    "get_backend",
]


@dataclass(frozen=True)
class FftBackend:
    """A pair of batched forward/inverse FFT callables over the last axis.

    Both callables must follow NumPy conventions (forward unscaled,
    inverse scaled by 1/n) and accept arbitrary batch shapes.

    **Precision contract.**  Every callable answers at its input's
    precision: complex64 in gives complex64 out (``"numpy"`` computes in
    complex128 and rounds once; ``"repro"`` runs its single-precision
    kernel plan), any other input gives complex128.

    ``fft_tt`` is an optional column-layout kernel: the forward
    transform of each column of a 2-D ``(n, cols)`` array, in the same
    layout.  Backends whose short transforms run down the columns
    natively (``"repro"``: fixed-width GEMM blocks, see
    :mod:`repro.dft.engine`) provide it to skip two transposes.  Every
    backend's column transform must compute each column on its own: a
    column slice must get exactly the bits the whole array gets.  The
    SOI convolution relies on that to run this stage panel by panel
    (:mod:`repro.core.convolve`).

    ``fft_into`` is optional too: ``fft_into(x, out)`` writes ``fft(x)``
    into *out* (which may be *x* itself) and returns *out*, bit-identical
    to ``fft``.  ``fft_tt_into(xt, out)`` is its column twin: it writes
    ``fft_tt(xt)`` into *out* (which may be *xt* itself, a column slice
    of a wider buffer included) and returns *out*.  The SOI pipeline
    runs its segment FFTs and pooled fft-p panels in place with them,
    so the transform writes no fresh array the copy-out would then read
    cold (:mod:`repro.core.convolve`).  ``fft_tt`` itself never writes
    its input.  Call the optional fields through :func:`backend_fft`
    and :func:`backend_fft_tt`, which fall back when one is missing.
    """

    name: str
    fft: Callable[[np.ndarray], np.ndarray]
    ifft: Callable[[np.ndarray], np.ndarray]
    fft_tt: Callable[[np.ndarray], np.ndarray] | None = None
    fft_into: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    fft_tt_into: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def backend_fft(
    backend: FftBackend, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Forward transform over the last axis, written into *out* (which
    may be *x* itself) where the backend transforms in place; the
    result array is returned either way."""
    if out is not None and backend.fft_into is not None:
        return backend.fft_into(x, out)
    return backend.fft(x)


def backend_fft_tt(
    backend: FftBackend, xt: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Column-wise forward transform of 2-D *xt*, output in the same layout.

    The zero-transpose pipeline step: the SOI convolution emits its
    output pre-transposed (one transform per column).  Written into
    *out* (which may be *xt* itself) where the backend has
    ``fft_tt_into``; backends without a fused ``fft_tt`` pay the two
    transposes the unfused pipeline always paid (values bit-identical
    either way).  The result array is returned.
    """
    if out is not None and backend.fft_tt_into is not None:
        return backend.fft_tt_into(xt, out)
    if backend.fft_tt is not None:
        return backend.fft_tt(xt)
    out = backend.fft(np.ascontiguousarray(np.swapaxes(xt, 0, 1)))
    return np.ascontiguousarray(np.swapaxes(out, 0, 1))


class UnknownBackendError(ValueError, KeyError):
    """No backend of that name.

    A ``ValueError`` (a bad argument value) that is also a ``KeyError``,
    which is what a failed name lookup raised before.
    """

    def __str__(self) -> str:  # KeyError's would quote the message
        return str(self.args[0])


def get_backend(name: str | FftBackend) -> FftBackend:
    """Look up a backend by name (or pass an :class:`FftBackend` through).

    Raises :class:`UnknownBackendError` for an unknown name and
    ``TypeError`` for anything that is neither a name nor a backend.
    """
    if isinstance(name, FftBackend):
        return name
    if not isinstance(name, str):
        raise TypeError(
            f"backend must be a backend name (str) or an FftBackend, "
            f"got {type(name).__name__}"
        )
    try:
        return _BACKENDS[name]
    except KeyError:
        raise UnknownBackendError(
            f"backend={name!r} is not an FFT backend; "
            f"available: {sorted(_BACKENDS)}"
        ) from None


def _repro_plan(x: np.ndarray, n: int):
    # The cached-plan hit path: repeated same-size transforms (the SOI
    # pipeline's length-P and length-M' batches) skip plan construction.
    # complex64 input runs the single-precision kernel plan.
    return plan_for(n, precision="single" if x.dtype == np.complex64 else None)


def _repro_fft(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    return _repro_plan(x, x.shape[-1]).execute(x, inverse=False)


def _repro_ifft(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    return _repro_plan(y, y.shape[-1]).execute(y, inverse=True)


def _repro_fft_tt(xt: np.ndarray) -> np.ndarray:
    xt = np.asarray(xt)
    return _repro_plan(xt, xt.shape[0]).execute_tt(xt)


def _numpy(transform, axis: int):
    """``transform`` (``np.fft.fft`` or ``ifft``) along *axis*, computed
    in complex128 and rounded once for complex64 input."""

    def call(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        y = transform(np.asarray(x, dtype=np.complex128), axis=axis)
        return y.astype(np.complex64) if x.dtype == np.complex64 else y

    return call


def _numpy_into(axis: int):
    def call(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        if x.dtype == np.complex64:
            out[...] = np.fft.fft(np.asarray(x, dtype=np.complex128), axis=axis)
            return out
        # numpy >= 2.0 copies each input vector into the output before
        # transforming it there, so out=x is exact.
        return np.fft.fft(x, axis=axis, out=out)

    return call


_NUMPY_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"

_BACKENDS: dict[str, FftBackend] = {
    "repro": FftBackend("repro", _repro_fft, _repro_ifft, fft_tt=_repro_fft_tt),
    "numpy": FftBackend(
        "numpy",
        _numpy(np.fft.fft, -1),
        _numpy(np.fft.ifft, -1),
        # pocketfft along axis 0 runs the same per-vector kernel as
        # axis -1 plus transpose (bit-identical, verified in tests).
        fft_tt=_numpy(np.fft.fft, 0),
        # numpy >= 2.0 takes out=.
        fft_into=_numpy_into(-1) if _NUMPY_OUT else None,
        fft_tt_into=_numpy_into(0) if _NUMPY_OUT else None,
    ),
}
