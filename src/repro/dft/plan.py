"""Transform plans: size-dispatching FFT execution objects.

A :class:`FftPlan` mirrors how production FFT libraries (FFTW, MKL —
the substrates in the paper's Fig. 2) are used: create a plan for a
size once, execute it many times, possibly over batches.  The plan
picks its kernel from ``n`` alone and precomputes everything
size-dependent at construction time, so ``execute`` does no
factorisation and no trigonometry, only the transform itself:

- power-of-two ``n <= 64`` (the SOI segment counts ``P``): the
  elementwise radix-2 network of :mod:`repro.dft.stockham`, in all
  three entry points;
- every other smooth ``n``: the GEMM-pass engine of
  :mod:`repro.dft.engine` (its radix schedule, DFT matrices and
  twiddle blocks are the plan's tables);
- a prime factor above 61: Bluestein's chirp-z
  (:mod:`repro.dft.bluestein`), whose padded transforms run on the same
  engine at a smooth length.

Row and column layouts agree bitwise for every ``n``: the network is
elementwise (a column's bits depend on that column only), and for every
other size ``execute_t`` / ``execute_tt`` transpose into the engine's
row layout, so the two layouts share one arithmetic by construction.

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
from .flops import fft_flops
from .stockham import stage_twiddles, stockham_fft, stockham_fft_t, stockham_fft_tt

__all__ = ["FftPlan", "fft", "ifft"]

#: Largest power of two that stays on the elementwise radix-2 network.
#: These are the SOI segment counts, transformed down the columns of a
#: ``(P, M')`` array: a GEMM pass there would be one matrix-vector
#: product per row, and the network's native column layout needs no
#: transposes.
NETWORK_MAX = 64


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
        # the forward result read index-reversed.
        self._network = self.kernel == "radix2" and self.n <= NETWORK_MAX
        if self._network:
            stage_twiddles(self.n, -1, self.compute_dtype)
            self._forward = lambda x2: stockham_fft(x2, -1)
        elif self.kernel == "bluestein":
            self._forward = ChirpZ(self.n, self.compute_dtype).forward
        else:
            self._forward = GemmStockham(self.n, self.compute_dtype).forward

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
        out = self._forward(rows)
        if self.inverse if inverse is None else inverse:
            out = inverse_from_forward(out)
        self._count(rows.shape[0])
        return out.reshape(arr.shape)

    def execute_t(self, x2: np.ndarray) -> np.ndarray:
        """Forward-transform the rows of 2-D *x2*, returned as ``(n, rows)``.

        Bit-identical to ``execute(x2).T`` made contiguous.  The radix-2
        network produces this layout natively (its internal
        orientation), so for ``n <= 64`` the transpose copy is skipped.
        Backends use this for pipeline stages that consume the
        transposed layout anyway (the SOI segment reorder).
        """
        arr = np.asarray(x2)
        if arr.ndim != 2:
            raise ValueError(f"execute_t needs a 2-D array, got shape {arr.shape}")
        self._check_axis(arr, -1, "last")
        if not self._network:
            # execute() does the flop accounting on this path.
            return np.ascontiguousarray(self.execute(arr, inverse=False).T)
        out = stockham_fft_t(self._as_compute(arr), -1)
        self._count(arr.shape[0])
        return out

    def execute_tt(self, xt: np.ndarray) -> np.ndarray:
        """Forward-transform the *columns* of 2-D *xt*; output ``(n, cols)``.

        The fully fused layout: input and output both column-major per
        transform (the network's internal orientation), so for
        ``n <= 64`` neither an entry nor an exit transpose is paid.
        Bit-identical to ``execute(xt.T).T`` made contiguous — which is
        literally what every other size runs, so a slice of the columns
        gets the bits the whole array gets.
        """
        arr = np.asarray(xt)
        if arr.ndim != 2:
            raise ValueError(f"execute_tt needs a 2-D array, got shape {arr.shape}")
        self._check_axis(arr, 0, "first")
        if not self._network:
            # execute() does the flop accounting on this path.
            return np.ascontiguousarray(self.execute(arr.T, inverse=False).T)
        out = stockham_fft_tt(self._as_compute(arr), -1)
        self._count(arr.shape[1])
        return out

    def __call__(self, x: np.ndarray, inverse: bool | None = None) -> np.ndarray:
        return self.execute(x, inverse=inverse)

    @property
    def flops_per_execution(self) -> float:
        """Nominal ``5 n log2 n`` flops of one transform through this plan."""
        return fft_flops(self.n)

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
