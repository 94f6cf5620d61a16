"""Coalesced execution: one kernel dispatch serving a whole batch.

This is where the service earns its keep: every kernel in the repo is
already batched over leading axes (PR 3's Stockham tables, the SOI
pipeline, pocketfft), so K same-key requests stack into one
``(K, n)`` array and execute as ONE Python-level dispatch.  Grouping is
*proved* harmless — the conformance registry pins coalesced outputs
bitwise-identical to one-at-a-time execution for every backend — so
the batcher optimises freely.

Per backend:

- ``dft``   — one stacked call of the request's backend
  (``library="numpy"``, the default: the MKL/FFTW stand-in, exactly the
  paper's "vendor library as building block" role; or
  ``library="repro"``).
- ``soi``   — :func:`repro.core.soi.soi_fft` / ``soi_ifft`` through
  the shared :func:`repro.core.plan.soi_plan_for` cache, one request
  at a time (a stacked ``soi_fft`` runs its rows through the same
  chain, so stacking the payloads would only add a copy).
- ``transpose`` — the distributed six-step FFT, batched over leading
  axes *inside one SPMD world*: K coalesced transforms share one
  thread-world launch and THREE all-to-all epochs total (not 3K) —
  the fixed distributed-transform costs are what coalescing amortises,
  which is where the serve bench's headline speedup comes from.
- ``nufft`` — per-request NUFFT inside one dispatch group (point sets
  differ per request; the plan is shared via a bounded keyed cache).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..dft.backends import get_backend
from ..utils.cache import LruCache
from .request import TransformRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..nufft import NufftPlan

__all__ = ["execute_batch"]

#: NufftPlans by ``k_modes`` (window spread tables are expensive to
#: rebuild per request); bounded, since ``k_modes`` comes from requests.
_NUFFT_PLANS = LruCache("serve.nufft_plans", 16)


def _nufft_plan(k_modes: int) -> "NufftPlan":
    from ..nufft import NufftPlan

    return _NUFFT_PLANS.get(k_modes, lambda: NufftPlan(k_modes))


def _execute_dft(requests: list[TransformRequest]) -> list[np.ndarray]:
    # The backend computes at the payload's precision (complex64 in,
    # complex64 out); the batch key carries the payload dtype, so a
    # batch is homogeneous.
    head = requests[0]
    be = get_backend(head.library)
    xs = np.stack([r.payload for r in requests])
    return list(be.ifft(xs) if head.direction == "inverse" else be.fft(xs))


def _execute_soi(requests: list[TransformRequest]) -> list[np.ndarray]:
    from ..core.plan import soi_plan_for
    from ..core.soi import soi_fft, soi_ifft

    head = requests[0]
    p = head.params
    plan = soi_plan_for(head.n, p["p"], beta=p["beta"], window=p["window"])
    fn = soi_ifft if head.direction == "inverse" else soi_fft
    # Coalescing amortises scheduling and the plan lookup; the
    # transforms themselves run per request, exactly as solo execution
    # would (and as a stacked soi_fft call does internally).
    return [fn(r.payload, plan, backend=head.library) for r in requests]


def _execute_transpose(requests: list[TransformRequest]) -> list[np.ndarray]:
    from ..simmpi.runtime import run_spmd
    from ..parallel.transpose import transpose_fft_distributed

    head = requests[0]
    nranks = head.params["nranks"]
    n = head.n
    block = n // nranks
    # One SPMD session serves the WHOLE batch: each rank gets a (K,
    # N/R) stack of local blocks, and the six-step's leading-axes
    # batching shares the three all-to-all epochs across all K
    # transforms (3 total, not 3K) and the world launch itself — the
    # fixed distributed-transform costs the serve bench shows dominate
    # one-at-a-time execution.
    xs = np.ascontiguousarray(
        np.stack([r.payload for r in requests]), dtype=np.complex128
    )
    res = run_spmd(
        nranks,
        lambda comm: transpose_fft_distributed(
            comm,
            xs[:, comm.rank * block : (comm.rank + 1) * block],
            n,
            backend=head.library,
        ),
    )
    out = np.concatenate(res.values, axis=-1)  # (K, n), natural order
    return list(out)


def _execute_nufft(requests: list[TransformRequest]) -> list[np.ndarray]:
    from ..nufft import nufft1, nufft2

    outs: list[np.ndarray] = []
    for req in requests:
        p = req.params
        plan = _nufft_plan(p["k_modes"])
        fn = nufft1 if p["kind"] == 1 else nufft2
        outs.append(fn(p["points"], req.payload, plan, backend=req.library))
    return outs


_EXECUTORS = {
    "dft": _execute_dft,
    "soi": _execute_soi,
    "transpose": _execute_transpose,
    "nufft": _execute_nufft,
}


def execute_batch(requests: list[TransformRequest]) -> list[np.ndarray]:
    """Execute a same-key batch; returns one output per request, in order.

    The caller guarantees all requests share one batch key; this
    function guarantees outputs are bitwise-identical to executing each
    request alone (the serve conformance rows re-prove this each run).
    """
    if not requests:
        return []
    return _EXECUTORS[requests[0].backend](requests)
