"""Transform plans: size-dispatching FFT execution objects.

A :class:`FftPlan` mirrors how production FFT libraries (FFTW, MKL —
the substrates in the paper's Fig. 2) are used: create a plan for a
size once, execute it many times, possibly over batches.  The plan
picks its kernel from ``n`` alone and precomputes everything
size-dependent at construction time, so ``execute`` does no
factorisation and no trigonometry, only the transform itself:

- every smooth ``n``: the GEMM-pass engine of :mod:`repro.dft.engine`
  (its radix schedule, DFT matrices and twiddle blocks are the plan's
  tables), down the columns for short lengths (the SOI segment counts
  ``P``) and along the rows otherwise;
- a prime factor above 61: Bluestein's chirp-z
  (:mod:`repro.dft.bluestein`), whose padded transforms run on the same
  engine at a smooth length.

Row and column layouts agree bitwise for every ``n``: :meth:`execute`
and :meth:`execute_tt` both transpose into the length's native layout
(:attr:`~repro.dft.engine.GemmStockham.column_native`), so the two
share one arithmetic by construction.

Plans are thread-safe: execution touches no shared mutable state
except the flop-accounting counter, which is lock-protected because
the global plan cache (:mod:`repro.dft.cache`) shares one plan object
across all ``run_spmd`` rank threads.

One-shot :func:`fft` / :func:`ifft` route through that cache, so even
casual callers get the create-once/execute-many cost profile.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..utils import check_positive_int, is_power_of_two
from .bluestein import ChirpZ
from .engine import GemmStockham, inverse_from_forward, is_smooth

__all__ = ["FftPlan", "fft", "ifft"]


@dataclass
class FftPlan:
    """Reusable plan for forward/inverse FFTs of one fixed length.

    Parameters
    ----------
    n:
        Transform length (any positive integer).
    inverse:
        Default direction of :meth:`execute`; either direction can be
        requested explicitly per call.
    precision:
        ``"double"`` (the default, complex128 compute — the historical
        contract) or ``"single"`` (complex64 compute, the explicit
        opt-in behind the float32 wire pipeline: half the bytes per
        element through every stage the plan touches).

    Attributes
    ----------
    kernel:
        The size class of ``n``: ``"radix2"`` (powers of two),
        ``"mixed_radix"`` (other smooth sizes) or ``"bluestein"``.
    executions:
        Number of transforms executed through this plan (batch entries
        count individually), for flop accounting.  Updated under a lock
        so cached plans can be shared across simmpi rank threads.
    """

    n: int
    inverse: bool = False
    precision: str = "double"
    kernel: str = field(init=False)
    executions: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.n = check_positive_int(self.n, "n")
        if self.precision not in ("double", "single"):
            raise ValueError(
                f"precision must be 'double' or 'single', got {self.precision!r}"
            )
        self.compute_dtype = np.dtype(
            np.complex64 if self.precision == "single" else np.complex128
        )
        self._count_lock = threading.Lock()
        if is_power_of_two(self.n):
            self.kernel = "radix2"
        elif is_smooth(self.n):
            self.kernel = "mixed_radix"
        else:
            self.kernel = "bluestein"
        # Precompute every size-dependent table so the first execute()
        # is not an outlier in timing loops (plans in FFTW/MKL do the
        # same).  Both directions run the forward tables: the inverse is
        # the forward result read index-reversed.  _rows / _columns take
        # C-contiguous (batch, n) rows / any (n, batch) array of the
        # compute dtype; the non-native one transposes into the other.
        if self.kernel == "bluestein":
            engine, column_native = ChirpZ(self.n, self.compute_dtype), False
        else:
            engine = GemmStockham(self.n, self.compute_dtype)
            column_native = engine.column_native
        if column_native:
            self._columns = engine.forward_columns
            self._rows = lambda x2: np.ascontiguousarray(engine.forward_columns(x2.T).T)
        else:
            self._rows = engine.forward
            self._columns = lambda xt: np.ascontiguousarray(
                engine.forward(np.ascontiguousarray(xt.T)).T
            )

    #: The default compute dtype; a plan's actual dtype is
    #: ``self.compute_dtype`` (complex64 for ``precision="single"``).
    COMPUTE_DTYPE = np.complex128

    def _as_compute(self, arr: np.ndarray) -> np.ndarray:
        """Normalise input to the plan's compute dtype, C-contiguous.

        Doing the cast here — rather than relying on each kernel's own
        coercion — makes cross-dtype plan-cache sharing sound by
        construction: a float32 caller and a complex128 caller of the
        same cached plan execute the identical kernel on the identical
        bit pattern.
        """
        return np.ascontiguousarray(arr, dtype=self.compute_dtype)

    def _check_axis(self, arr: np.ndarray, axis: int, which: str) -> None:
        if arr.shape[axis] != self.n:
            raise ValueError(
                f"plan is for length {self.n}, input {which} axis is {arr.shape[axis]}"
            )

    def _count(self, transforms: int) -> None:
        with self._count_lock:
            self.executions += transforms

    def execute(self, x: np.ndarray, inverse: bool | None = None) -> np.ndarray:
        """Transform *x* over its last axis; length must equal ``self.n``.

        Returns a new array; the input is never modified.  Any numeric
        input dtype/layout is accepted and computed at the plan's
        precision.  A stacked call is bitwise its rows transformed one
        at a time.
        """
        arr = np.asarray(x)
        if arr.ndim == 0:
            raise ValueError(
                f"plan is for length {self.n}, input has shape () — "
                "need at least one axis"
            )
        self._check_axis(arr, -1, "last")
        arr = self._as_compute(arr)
        rows = arr.reshape(-1, self.n)
        if rows.shape[0] == 0:
            return np.empty(arr.shape, dtype=self.compute_dtype)
        out = self._rows(rows)
        if self.inverse if inverse is None else inverse:
            out = inverse_from_forward(out)
        self._count(rows.shape[0])
        return out.reshape(arr.shape)

    def execute_tt(self, xt: np.ndarray) -> np.ndarray:
        """Forward-transform the *columns* of 2-D *xt*; output ``(n, cols)``.

        Bit-identical to ``execute(xt.T).T`` made contiguous, and a
        slice of the columns gets exactly the bits the whole array gets.
        Column-native lengths read *xt* in place (views included), so
        the SOI convolution's panels pay no transposes.
        """
        arr = np.asarray(xt)
        if arr.ndim != 2:
            raise ValueError(f"execute_tt needs a 2-D array, got shape {arr.shape}")
        self._check_axis(arr, 0, "first")
        out = self._columns(np.asarray(arr, dtype=self.compute_dtype))
        self._count(arr.shape[1])
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FftPlan(n={self.n}, kernel={self.kernel!r}, executions={self.executions})"


def _one_shot(x: np.ndarray, inverse: bool) -> np.ndarray:
    from .cache import plan_for  # local import: cache.py imports FftPlan

    arr = np.asarray(x)
    if arr.ndim == 0:
        raise ValueError(f"transform needs at least one axis, got shape {arr.shape}")
    return plan_for(arr.shape[-1], arr.dtype).execute(arr, inverse=inverse)


def fft(x: np.ndarray) -> np.ndarray:
    """One-shot forward FFT over the last axis (any length, cached plan)."""
    return _one_shot(x, inverse=False)


def ifft(y: np.ndarray) -> np.ndarray:
    """One-shot inverse FFT over the last axis (any length, cached plan)."""
    return _one_shot(y, inverse=True)
