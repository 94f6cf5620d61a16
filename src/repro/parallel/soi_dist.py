"""Distributed SOI FFT — the paper's single-all-to-all algorithm (Fig. 2).

Data layout (R ranks, P = R * S segments, S = segments per rank; the
paper runs S = 8):

- input: rank i owns the contiguous block ``x[i*N/R : (i+1)*N/R]``
  (``N/R = M*S`` samples);
- output: rank i owns ``y`` over the same index range — in-order.

Pipeline per rank (communication phases labelled for the traffic stats):

1. ``halo``       — receive ``(B - nu) * P`` samples from the next rank
                    (wrapping), the only neighbour traffic; the paper
                    notes this is "typically less than 0.01% of M".
2. ``convolve``   — the structured W x product on local chunks,
                    producing the rank's M'/R block-rows of z.
3. ``fft-p``      — batched length-P FFTs (``I_M' (x) F_P``), local.
4. ``alltoall``   — THE one global exchange (``P_perm^{P,N'}``): rank i
                    sends its rows' columns ``d*S:(d+1)*S`` to rank d.
                    Every pair exchanges ``(M'/R) * S`` points; total
                    volume N' = (1+beta) N points.
5. ``fft-m``      — S batched length-M' FFTs + demodulation, local.

The floating-point operations are identical to the sequential
:func:`repro.core.soi.soi_fft` — tests assert bit-for-bit equality.
"""

from __future__ import annotations

import numpy as np

from ..core.plan import SoiPlan
from ..core.soi import _plan_fft
from ..dft.backends import FftBackend, get_backend
from ..dft.flops import fft_flops, soi_convolution_flops
from ..simmpi.alltoall import resolve_algorithm
from ..simmpi.comm import Communicator, waitall, waitany
from ..trace.spans import TraceRecorder
from ..utils import require
from .resilience import SoiResilience, _soi_fft_resilient

__all__ = [
    "SoiResilience",
    "soi_fft_distributed",
    "soi_ifft_distributed",
    "soi_overlap_spans",
    "soi_rank_layout",
]

# Tags of the pipelined path's nonblocking exchanges (positive: user
# range; the collectives use negative tags).
PIECE_TAG = 7
HALO_TAG = 8


def soi_rank_layout(plan: SoiPlan, nranks: int) -> dict[str, int]:
    """Validate and describe the per-rank decomposition of *plan*.

    Returns the derived sizes; raises if the plan cannot be laid out on
    *nranks* ranks (the constraints mirror Section 6: whole chunks and
    whole segments per rank).
    """
    require(plan.p % nranks == 0, f"ranks={nranks} must divide P={plan.p}")
    segments_per_rank = plan.p // nranks
    block = plan.n // nranks
    stride = plan.nu * plan.p
    require(
        block % stride == 0,
        f"per-rank block {block} must be a multiple of nu*P={stride} "
        f"(whole convolution chunks per rank)",
    )
    require(
        plan.halo <= block,
        f"halo {plan.halo} exceeds the per-rank block {block}; "
        f"N is too small for this (B, P, ranks) combination",
    )
    return {
        "nranks": nranks,
        "segments_per_rank": segments_per_rank,
        "block": block,
        "chunks_per_rank": block // stride,
        "rows_per_rank": plan.m_over // nranks,
        "halo": plan.halo,
    }


def soi_overlap_spans(
    plan: SoiPlan, block: int, groups: int
) -> tuple[list[tuple[int, int]], int]:
    """Chunk-group boundaries of the pipelined path: ``(spans, halo_free)``.

    Window q reads raw samples ``[q*nu*P, q*nu*P + B*P)``, so the first
    ``halo_free`` windows depend only on the local block — they can be
    convolved while the halo is still in flight.  The first group is
    exactly that prefix; the remaining windows are split evenly into
    ``groups - 1`` further groups.  Empty groups are dropped (every rank
    computes the same spans, so senders and receivers agree on the
    piece count).
    """
    require(groups >= 2, f"overlap_groups must be >= 2, got {groups}")
    q_local = block // (plan.nu * plan.p)
    halo_free = (block - plan.b * plan.p) // (plan.nu * plan.p) + 1
    halo_free = min(max(halo_free, 0), q_local)
    cuts = np.linspace(halo_free, q_local, groups, dtype=int)
    bounds = [0] + [int(c) for c in cuts]
    spans = [(q0, q1) for q0, q1 in zip(bounds, bounds[1:]) if q1 > q0]
    return spans, halo_free


def soi_fft_distributed(
    comm: Communicator,
    x_local: np.ndarray,
    plan: SoiPlan,
    backend: str | FftBackend = "numpy",
    trace: TraceRecorder | None = None,
    overlap: bool = False,
    overlap_groups: int = 2,
    resilience: SoiResilience | None = None,
    alltoall_algorithm: str | None = None,
) -> np.ndarray:
    """SPMD SOI FFT: each rank passes its block, receives its output block.

    Must be called collectively by all ranks of *comm* with a plan whose
    ``p`` is a multiple of ``comm.size``.

    With ``overlap=True`` the rank program is restructured for
    communication/computation overlap (see :func:`soi_overlap_spans`):
    the halo travels as an ``isend`` while the halo-free window prefix
    is convolved, each chunk group's all-to-all pieces are posted the
    moment the group's column block is transformed, and arriving pieces
    are drained ``waitany``-first into the preallocated segment buffer.
    The floating-point schedule is unchanged — outputs and per-phase
    traffic byte totals are bit-for-bit identical to the blocking path
    (the conformance suite pins this); only message granularity and
    timing differ.  All ranks must pass the same *overlap* and
    *overlap_groups* (they are collective parameters, like counts in
    MPI).

    Message integrity is the runtime's job, not this function's: run
    under ``run_spmd(transport=TransportPolicy(...))`` and every halo
    and all-to-all message, blocking or pipelined, is CRC- and
    sequence-checked and retransmitted on loss or corruption.  The
    output is bitwise the fault-free one.  :func:`repro.core.parseval_check`
    screens a gathered result against the plan's error budget.

    With ``trace=`` (a shared :class:`~repro.trace.TraceRecorder`, or
    one already attached via ``run_spmd(trace=...)``) every phase lands
    on the rank's virtual timeline: compute spans carry the Section-5
    flop counts, communication spans the exchanged bytes.  Tracing is
    bit-transparent — output and traffic statistics are identical with
    and without it.

    With ``resilience=`` (a shared :class:`SoiResilience`, one instance
    passed by every rank; requires ``resilient=True`` on ``run_spmd``)
    the transform survives a single rank death via checksummed ABFT
    recovery — see :mod:`repro.parallel.resilience`.  Fault-free output
    is bit-identical to the blocking path; the extra traffic is the
    input replication ring plus one checksum column per all-to-all
    block.  Mutually exclusive with ``overlap=``.

    ``alltoall_algorithm`` selects the exchange schedule of step 4
    (``"pairwise"``/``"bruck"``/``"hierarchical"``; ``None`` defers to
    the world default) — collective, like every other parameter here.
    All schedules are bitwise-identical in output.  The name is
    validated on every path, but the pipelined ``overlap=True`` path
    keeps its own isend/irecv piece schedule (its sends ARE the
    exchange) and ``resilience=`` its own checksummed one.
    """
    be = get_backend(backend)
    algorithm = resolve_algorithm(alltoall_algorithm, comm.world)
    if trace is not None:
        trace.attach(comm.world)
    layout = soi_rank_layout(plan, comm.size)
    block = layout["block"]
    s_per = layout["segments_per_rank"]
    vec = np.ascontiguousarray(x_local, dtype=plan.dtype)
    require(
        vec.shape == (block,),
        f"rank {comm.rank}: expected local block of {block} samples, got {vec.shape}",
    )
    if resilience is not None:
        require(not overlap, "resilience= and overlap= are mutually exclusive")
        require(
            plan.dtype == np.dtype(np.complex128),
            "resilience= requires a complex128 plan (ABFT checksums are double)",
        )
        if comm.size > 1:
            return _soi_fft_resilient(comm, vec, plan, be, layout, resilience)
    if overlap and comm.size > 1:
        return _soi_fft_pipelined(comm, vec, plan, be, layout, overlap_groups)

    # -- 1. halo: the forward-neighbour samples the last chunks read. ----
    # The halo send is zero-copy (the substrate passes references and
    # receivers only read): ``vec`` is private to this rank and never
    # mutated, so no defensive copy is needed.
    with comm.phase("halo"):
        left = (comm.rank - 1) % comm.size
        right = (comm.rank + 1) % comm.size
        if comm.size == 1:
            halo = vec[: plan.halo]
        else:
            halo = comm.sendrecv(vec[: plan.halo], dest=left, source=right)

    # -- 2./3. convolution + small local FFTs: this rank's block-rows of
    # z = W x, then (I_M' (x) F_P) on them, in one call. ------------------
    q_local = layout["chunks_per_rank"]
    # The sequential pipeline's kernel on this rank's windows; passing
    # the rank's global chunk offset puts every output at the position
    # of the kernel's tile grid it has in the sequential call, which is
    # what makes the two bit-for-bit equal (see repro.core.convolve).
    # The kernel emits z pre-transposed, (P, rows), and transforms its
    # columns in that layout: exactly the segment-major orientation the
    # all-to-all delivers, so neither the transform nor packing pays a
    # copy.  Each stage keeps its own compute charge.
    winb = plan.window_view(vec, halo, q_local)
    v_t = plan.convolve_fft_p(winb, comm.rank * q_local, be)
    comm.trace_compute(
        "convolve",
        soi_convolution_flops(layout["rows_per_rank"] * plan.p, plan.b),
        kind="conv",
    )
    comm.trace_compute("fft-p", layout["rows_per_rank"] * fft_flops(plan.p))

    # -- 4. THE all-to-all: deliver segment rows to their owners. ---------
    with comm.phase("alltoall"):
        # Zero-copy packing: rank d owns segments [d*S, (d+1)*S), which
        # are contiguous row blocks of the transposed transform — one
        # reshape yields every destination slice as a view.
        # Matrix form: the packed sendbuf is already one contiguous
        # (P, S, rows) array, so the exchange moves whole-node row
        # batches instead of P² block objects (same bytes, same
        # messages, bitwise-identical rows — see exchange_matrix).
        sendbuf3 = v_t.reshape(comm.size, s_per, -1)
        mat = comm.alltoall_matrix(sendbuf3, algorithm=algorithm)
    # mat[src] is (S, rows_per_rank): my segments, src's row range.

    # -- 5. segment FFTs + demodulation (in-order output). ----------------
    # (S, M'), rows in src order — identical element order to
    # np.concatenate(list(mat), axis=1).
    segs = np.ascontiguousarray(mat.transpose(1, 0, 2)).reshape(s_per, -1)
    yt = _plan_fft(be, segs, plan)
    comm.trace_compute("fft-m", s_per * fft_flops(plan.m_over))
    y_local = yt[:, : plan.m] * plan.demod_recip[None, :]
    return y_local.reshape(block)


def _soi_fft_pipelined(
    comm: Communicator,
    vec: np.ndarray,
    plan: SoiPlan,
    be: FftBackend,
    layout: dict[str, int],
    groups: int,
) -> np.ndarray:
    """The ``overlap=True`` rank program (same math, pipelined schedule).

    Three overlaps, all hiding wire time behind the convolution:

    - the halo ``isend`` departs before any compute, and the halo
      ``irecv`` is only waited when the first halo-dependent window
      group comes up — the halo-free prefix convolves during flight;
    - each group's all-to-all pieces are ``isend``-posted as soon as
      that column block is transformed, so early groups travel while
      later groups compute;
    - piece receives are posted up front and drained ``waitany``-first
      (arrival order, not source order) into the segment buffer.

    A two-slot send-buffer pool bounds outstanding send memory: posting
    group g first completes group g-2's sends (payloads travel
    zero-copy, so a buffer must stay untouched until consumed).
    """
    block = layout["block"]
    s_per = layout["segments_per_rank"]
    q_local = layout["chunks_per_rank"]
    rows_pr = layout["rows_per_rank"]
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size
    spans, _ = soi_overlap_spans(plan, block, groups)

    with comm.phase("halo"):
        halo_send = comm.isend(vec[: plan.halo], left, tag=HALO_TAG)
        halo_req = comm.irecv(right, tag=HALO_TAG)

    with comm.phase("alltoall"):
        if comm.rank == 0:
            comm.stats.record_alltoall("alltoall")
        recv_reqs = []
        recv_slots = []
        for src in range(comm.size):
            if src == comm.rank:
                continue
            c0 = src * rows_pr
            for q0, q1 in spans:
                recv_reqs.append(comm.irecv(src, tag=PIECE_TAG))
                recv_slots.append((c0 + q0 * plan.mu, c0 + q1 * plan.mu))

    # Extended-input workspace with a zero tail; re-derived (same buffer,
    # same strides) once the halo lands, so each group's convolution is
    # the blocking path's kernel on identical bytes at the same global
    # chunk offset.
    winb = plan.window_view(vec, np.zeros(plan.halo, dtype=plan.dtype), q_local)
    segs = np.empty((s_per, plan.m_over), dtype=plan.dtype)
    my0 = comm.rank * rows_pr
    halo = None
    pool: list[tuple | None] = [None, None]

    for g, (q0, q1) in enumerate(spans):
        if halo is None and (q1 - 1) * plan.nu * plan.p + plan.b * plan.p > block:
            # This group's last window reads past the local block: the
            # halo must have landed.
            with comm.phase("halo"):
                halo = halo_req.wait()
            winb = plan.window_view(vec, halo, q_local)
        vg = plan.convolve_fft_p(
            winb[q0:q1], comm.rank * q_local + q0, be
        ).reshape(comm.size, s_per, -1)
        comm.trace_compute(
            "convolve",
            soi_convolution_flops((q1 - q0) * plan.mu * plan.p, plan.b),
            kind="conv",
        )
        comm.trace_compute("fft-p", (q1 - q0) * plan.mu * fft_flops(plan.p))
        with comm.phase("alltoall"):
            slot = g % 2
            if pool[slot] is not None:
                waitall(pool[slot][1])  # double-buffer: retire g-2's sends
            sends = []
            for dst in range(comm.size):
                if dst == comm.rank:
                    segs[:, my0 + q0 * plan.mu : my0 + q1 * plan.mu] = vg[dst]
                    comm.stats.record_message(
                        "alltoall", comm.rank, comm.rank, vg[dst].nbytes
                    )
                else:
                    sends.append(comm.isend(vg[dst], dst, tag=PIECE_TAG))
            pool[slot] = (vg, sends)

    if halo is None:  # every window was halo-free: collect the halo anyway
        with comm.phase("halo"):
            halo_req.wait()

    with comm.phase("alltoall"):
        outstanding = len(recv_reqs)
        while outstanding:
            i, piece = waitany(recv_reqs)
            a, b = recv_slots[i]
            segs[:, a:b] = piece
            outstanding -= 1
        halo_send.wait()
        for slot in (0, 1):
            if pool[slot] is not None:
                waitall(pool[slot][1])

    yt = _plan_fft(be, segs, plan)
    comm.trace_compute("fft-m", s_per * fft_flops(plan.m_over))
    y_local = yt[:, : plan.m] * plan.demod_recip[None, :]
    return y_local.reshape(block)


def soi_ifft_distributed(
    comm: Communicator,
    y_local: np.ndarray,
    plan: SoiPlan,
    backend: str | FftBackend = "numpy",
    trace: TraceRecorder | None = None,
    overlap: bool = False,
    overlap_groups: int = 2,
    resilience: SoiResilience | None = None,
    alltoall_algorithm: str | None = None,
) -> np.ndarray:
    """Distributed inverse SOI transform (approximates ``ifft``).

    Conjugation identity ``ifft(y) = conj(fft(conj(y))) / N`` — because
    the conjugation is elementwise and local, the inverse has exactly
    the same single-all-to-all communication structure as the forward
    transform, and shares its precomputed workspaces (convolution
    kernel, reciprocal demodulation).  The output conjugation
    and 1/N scale run in place on the forward result — no extra
    temporaries.  Collective; block layout identical to
    :func:`soi_fft_distributed`.  With ``resilience=``, a recovered
    casualty block held by its buddy is conjugated and scaled in place
    too, so :attr:`SoiResilience.recovered_blocks` holds *inverse*
    blocks after this call.
    """
    vec = np.ascontiguousarray(y_local, dtype=plan.dtype)
    forward = soi_fft_distributed(
        comm, np.conj(vec), plan, backend=backend, trace=trace,
        overlap=overlap, overlap_groups=overlap_groups,
        resilience=resilience, alltoall_algorithm=alltoall_algorithm,
    )
    np.conjugate(forward, out=forward)
    forward /= plan.n
    if resilience is not None:
        resilience.finalize_inverse(plan, comm.rank)
    return forward
