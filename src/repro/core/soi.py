"""The sequential SOI FFT (Sections 5-6, Eq. 6).

Implements the paper's single-all-to-all factorisation

    ``y ~= (I_P (x) W_hat^-1 P_proj F_M') P_perm^{P,N'} (I_M' (x) F_P) W x``

as a fully vectorised four-stage pipeline:

1. **Convolution** ``z = W x``: the real ``(mu, B, P)`` coefficient
   table applied as banded tile GEMMs to stencil windows gathered
   straight from the input, then one unit-modulus phase per output
   (:mod:`repro.core.convolve`) — Section 6's loop nest blocked for BLAS.
2. **Small FFTs** ``(I_M' (x) F_P)``: length-P transforms of the M'
   rows of z, each independent of the others, so the convolution kernel
   runs them on each cache-sized panel of z as soon as it is written
   and the whole untransformed z never exists.
3. **Global reordering** ``P_perm^{P,N'}``: a transpose — the step that
   becomes THE single all-to-all in the distributed version.
4. **Segment FFTs + demodulation**: P batched length-M' transforms
   (in place in the segments array when the backend has
   ``fft_into``), keep the first M bins of each, multiply by the plan's
   precomputed ``1 / w_hat(k)`` diagonal.

Every usable CPU with a free kernel workspace takes part
(:mod:`repro.core.cores`), by one rule: a vector spanning two or more
fft-p panels shares its panels (stages 1-2) and row blocks (stage 4),
one vector after another; otherwise each vector of a batch is one unit,
its whole chain run on the workspace its thread already holds.  Every
vector, panel and row is computed on its own, so the bits do not depend
on how many CPUs took part.

The sequential code is the reference the distributed implementation in
:mod:`repro.parallel.soi_dist` must match bit-for-bit (it performs the
same floating-point operations, only placed on different ranks).
"""

from __future__ import annotations

import numpy as np

from ..dft.backends import FftBackend, get_backend
from ..utils import as_complex_vector
from . import cores
from .plan import SoiPlan

__all__ = [
    "soi_fft",
    "soi_ifft",
    "soi_fft2",
    "soi_segment",
    "soi_convolve",
    "extended_input",
]

#: Bytes of segments per back-half unit when a call is shared across CPUs
#: (blocks of 1, 2, 2.6 and 5 MiB measured alike at N = 2^20, P = 64;
#: single rows were slower).
_ROW_BLOCK_BYTES = 1 << 20


def _as_batched(x: np.ndarray, plan: SoiPlan) -> np.ndarray:
    """Coerce input to the plan's dtype with last axis == plan.n."""
    _check_plan(plan)
    # Checked before converting: ascontiguousarray turns a 0-d value
    # into shape (1,).
    if np.ndim(x) == 0:
        raise ValueError(
            f"plan is for N={plan.n}, input has shape () — need at least one axis"
        )
    arr = np.ascontiguousarray(x, dtype=plan.dtype)
    if arr.shape[-1] != plan.n:
        raise ValueError(
            f"plan is for N={plan.n}, input last axis has {arr.shape[-1]} points"
        )
    return arr


def _check_plan(plan, name: str = "plan") -> None:
    if not isinstance(plan, SoiPlan):
        raise TypeError(f"{name} must be a SoiPlan, got {type(plan).__name__}")


def _plan_fft(
    be: FftBackend, z: np.ndarray, plan: SoiPlan, out: np.ndarray | None = None
) -> np.ndarray:
    """Backend forward FFT over the last axis at the plan's precision.

    Double-precision plans use the backend verbatim (the historical
    bit-exact path), writing into *out* (which may be *z* itself) when
    the backend has ``fft_into``; the result array is returned either
    way.  For complex64 plans the repro backend executes a native
    single-precision kernel plan; other backends compute at their own
    precision and round once to complex64 — the distributed pipeline
    routes through this same helper, so sequential and distributed stay
    bit-for-bit equal at either precision.
    """
    if plan.dtype != np.complex64:
        if out is not None and be.fft_into is not None:
            return be.fft_into(z, out)
        return be.fft(z)
    if be.name == "repro":
        from ..dft.cache import plan_for

        return plan_for(z.shape[-1], precision="single").execute(z, inverse=False)
    return be.fft(z).astype(np.complex64)


def extended_input(x: np.ndarray, plan: SoiPlan) -> np.ndarray:
    """Input extended with its periodic wrap so every stencil is contiguous.

    The last chunk's window reads ``B*P`` samples starting at
    ``N - nu*P``; appending the first ``B*P`` samples (plan validation
    guarantees ``B*P <= N``) makes all reads in-bounds.  Batched over
    leading axes.
    """
    arr = _as_batched(x, plan)
    return np.concatenate([arr, arr[..., : plan.b * plan.p]], axis=-1)


def soi_convolve(x: np.ndarray, plan: SoiPlan) -> np.ndarray:
    """Stage 1: the structured sparse product ``z = W x``, shape (..., M', P).

    ``z[q*mu + r, p] = sum_b C[r, b, p] * x[(q*nu*P + b*P + p) mod N]``.

    The transpose of what the pipeline itself computes (it keeps ``z``
    in the ``(P, M')`` layout), so values are bit-for-bit those of
    :func:`soi_fft`'s first stage.  The performance model charges this
    stage the paper's ``8 * N' * B`` real flops; the kernel executes
    half of that on useful terms (see :mod:`repro.core.convolve`).
    Batched over leading axes, one vector at a time.
    """
    arr = _as_batched(x, plan)
    out = np.empty(arr.shape[:-1] + (plan.m_over, plan.p), dtype=plan.dtype)
    kernel = plan._convolver()
    for idx in np.ndindex(arr.shape[:-1]):
        rows = arr[idx].reshape(plan.m, plan.p)   # the wrap: its first B rows
        out[idx] = kernel(rows, rows[: plan.b], plan.q_chunks, 0).T
    return out


def soi_fft(
    x: np.ndarray,
    plan: SoiPlan,
    backend: str | FftBackend = "numpy",
) -> np.ndarray:
    """Full in-order N-point SOI FFT (sequential reference).

    Returns an approximation of ``numpy.fft.fft(x, axis=-1)`` whose
    accuracy is set by the plan's window design (~14.5 digits for the
    default ``"full"`` preset; see Fig. 7 for the accuracy/speed dial).
    Accepts batches over leading axes; each vector runs the same
    zero-transpose chain, so a batch is bit-for-bit its rows (and a
    batch of vectors under two fft-p panels shares them across CPUs).

    The *backend* names the node-local FFT used as the building block
    (``"numpy"`` standing in for MKL, ``"repro"`` for this library's
    own kernels) — the algorithm is backend-agnostic, as in the paper.
    """
    return _transform(get_backend(backend), plan, _as_batched(x, plan), False)


def _transform(be: FftBackend, plan: SoiPlan, arr: np.ndarray, inverse: bool) -> np.ndarray:
    """The batch loop of :func:`soi_fft`, and of :func:`soi_ifft` when
    *inverse* (each vector conjugated by the convolution's gather, its
    result conjugated and scaled while still in cache).  Vectors under
    two panels are the units shared across CPUs, each run on the
    workspace its thread holds: a nested checkout, with every workspace
    held, would wait forever.  Larger vectors share their own panels and
    row blocks, one vector after another."""
    out = np.empty(arr.shape, dtype=plan.dtype)
    kernel = plan._convolver()
    fft_p = plan._fft_p(be)

    def vector(ws, idx) -> None:
        # Zero-transpose chain: the convolution emits z pre-transposed
        # in the (P, M') segment layout and transforms its columns panel
        # by panel — stage 1 through P_perm^{P,N'} never copies through
        # a transpose, and fft-m overwrites the segments where it can.
        rows = arr[idx].reshape(plan.m, plan.p)
        segments = kernel(    # W x, (I_M' (x) F_P) + P_perm
            rows, rows[: plan.b], plan.q_chunks, 0, fft_p, ws, inverse
        )
        y = out[idx].reshape(plan.p, plan.m)
        _segment_ffts(be, plan, segments, y)
        if inverse:
            np.conjugate(y, out=y)
            y /= plan.n

    vectors = list(np.ndindex(arr.shape[:-1]))
    if len(kernel.panel_units(plan.q_chunks, 0)) > 1:
        for idx in vectors:
            vector(None, idx)
    else:
        cores.fan_out(kernel, vectors, vector)
    return out


def _segment_ffts(
    be: FftBackend, plan: SoiPlan, segments: np.ndarray, out: np.ndarray
) -> None:
    """``I_P (x) F_M'``, ``P_proj`` and ``W_hat^-1``: the ``(P, M')``
    segments (overwritten where the backend transforms in place) into
    the ``(P, M)`` *out*.  Every row is computed on its own, so calls
    whose front half ran on every free CPU split the rows in blocks of
    about ``_ROW_BLOCK_BYTES`` across them too (:mod:`repro.core.cores`).
    """

    def rows(ws, block: tuple[int, int]) -> None:
        r0, r1 = block
        yt = _plan_fft(be, segments[r0:r1], plan, out=segments[r0:r1])
        np.multiply(yt[:, : plan.m], plan.demod_recip, out=out[r0:r1])

    kernel = plan._convolver()
    if not cores.shared(kernel, kernel.panel_units(plan.q_chunks, 0)):
        rows(None, (0, plan.p))
        return
    step = max(1, _ROW_BLOCK_BYTES // segments[0].nbytes)
    cores.fan_out(kernel, [(r, min(r + step, plan.p)) for r in range(0, plan.p, step)], rows)


def soi_ifft(
    y: np.ndarray,
    plan: SoiPlan,
    backend: str | FftBackend = "numpy",
) -> np.ndarray:
    """Inverse SOI transform: approximates ``numpy.fft.ifft``.

    Uses the conjugation identity ``ifft(y) = conj(fft(conj(y))) / N``,
    so the inverse inherits the forward transform's communication
    structure, accuracy, and precomputed workspaces (convolution kernel,
    reciprocal demodulation) unchanged.  Each vector is conjugated by
    the copy into the window buffer and its output conjugated and scaled
    in place — no temporaries beyond the forward transform's own.
    """
    arr = _as_batched(y, plan)
    return _transform(get_backend(backend), plan, arr, True)


def soi_fft2(
    x: np.ndarray,
    plan_rows: SoiPlan,
    plan_cols: SoiPlan | None = None,
    backend: str | FftBackend = "numpy",
) -> np.ndarray:
    """2-D SOI FFT (the paper's 'generalize to higher dimensions' item).

    Applies the 1-D SOI transform along the last axis with *plan_rows*,
    then along the first axis with *plan_cols* (defaults to plan_rows —
    square inputs).  Approximates ``numpy.fft.fft2`` with the combined
    window error of the two passes.  Input shape must be
    ``(plan_cols.n, plan_rows.n)``; both plans must share one dtype, the
    precision the input is converted to and the result comes back in.
    """
    _check_plan(plan_rows, "plan_rows")
    pc = plan_cols if plan_cols is not None else plan_rows
    _check_plan(pc, "plan_cols")
    if pc.dtype != plan_rows.dtype:
        raise ValueError(
            f"plan_cols has dtype {pc.dtype}, plan_rows {plan_rows.dtype}; "
            f"both passes must run at one precision"
        )
    arr = np.ascontiguousarray(x, dtype=plan_rows.dtype)
    if arr.ndim != 2 or arr.shape != (pc.n, plan_rows.n):
        raise ValueError(
            f"expected shape ({pc.n}, {plan_rows.n}), got {arr.shape}"
        )
    rows = soi_fft(arr, plan_rows, backend=backend)
    cols = soi_fft(np.ascontiguousarray(rows.T), pc, backend=backend)
    return np.ascontiguousarray(cols.T)


def soi_segment(
    x: np.ndarray,
    plan: SoiPlan,
    s: int,
    backend: str | FftBackend = "numpy",
) -> np.ndarray:
    """Compute only segment *s*: ``y[s*M : (s+1)*M]`` (Section 5).

    Uses the phase-shift identity ``y^(s) = first segment of
    F_N(Phi_s x)`` with ``Phi_s = I_M (x) diag(omega^s)``,
    ``omega = exp(-2*pi*i/P)``: after modulation, segment 0 of the
    pipeline is a plain sum over the P-axis of z (the s=0 DFT bin), so
    one segment costs only the convolution plus ONE length-M' FFT —
    this is the "direct pursuit of a segment of interest" of Fig. 1.
    """
    _check_plan(plan)
    phase = plan.segment_phase(s)    # validates s; cached length-P table
    be = get_backend(backend)
    vec = as_complex_vector(x)
    if vec.size != plan.n:
        raise ValueError(f"plan is for N={plan.n}, input has {vec.size} points")
    if vec.dtype != plan.dtype:
        vec = vec.astype(plan.dtype)
    modulated = (vec.reshape(plan.m, plan.p) * phase).reshape(plan.n)
    z = soi_convolve(modulated, plan)
    x_tilde = z.sum(axis=1)          # DFT bin 0 across the P-axis
    yt = _plan_fft(be, x_tilde, plan)
    return yt[: plan.m] * plan.demod_recip
