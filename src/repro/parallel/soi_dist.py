"""Distributed SOI FFT — the paper's single-all-to-all algorithm (Fig. 2).

Data layout (R ranks, P = R * S segments, S = segments per rank; the
paper runs S = 8):

- input: rank i owns the contiguous block ``x[i*N/R : (i+1)*N/R]``
  (``N/R = M*S`` samples);
- output: rank i owns ``y`` over the same index range — in-order.

One rank program; its phases (:data:`SOI_PHASES`) label the traffic
stats and are the fault plan's kill boundaries on every path:

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

Steps 2-4 run per chunk group, and step 4 has two strategies: one
collective, or pieces posted per group and drained ``waitany``-first
(see :func:`soi_fft_distributed`).  ``resilience=`` is a hook on the
piece strategy (:mod:`repro.parallel.resilience`): ``replicate``
replaces ``halo``, and ``commit`` / ``recover`` follow ``fft-m``.

The floating-point operations are identical to the sequential
:func:`repro.core.soi.soi_fft` — tests assert bit-for-bit equality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.plan import SoiPlan
from ..core.soi import _plan_fft
from ..dft.backends import FftBackend, get_backend
from ..dft.flops import fft_flops, soi_convolution_flops
from ..simmpi.alltoall import resolve_algorithm
from ..simmpi.comm import Communicator
from ..simmpi.errors import RankFailedError
from ..simmpi.requests import waitall, waitany
from ..simmpi.transport import _payload_bytes
from ..trace.spans import TraceRecorder
from ..utils import require

if TYPE_CHECKING:
    from .resilience import SoiResilience

__all__ = [
    "SOI_PHASES",
    "TAGS",
    "soi_fft_distributed",
    "soi_ifft_distributed",
    "soi_overlap_spans",
    "soi_rank_layout",
]

#: The rank program's phases in program order.  A path enters a
#: subsequence (the piece strategy once per chunk group for convolve,
#: fft-p and alltoall), so ``FaultPlan().kill(rank, phase=...)`` — a
#: death at the first entry — means the same point on every path.
SOI_PHASES = (
    "halo", "replicate", "convolve", "fft-p", "alltoall", "fft-m", "commit", "recover",
)

#: Every point-to-point tag of :mod:`repro.parallel`, in one table so
#: no two exchanges share a channel by accident.  The collectives own
#: the negative range.
TAGS = {
    "piece": 7,  # one chunk group's all-to-all piece
    "halo": 8,
    "recover": 9,  # buddy -> survivor blocks; the casualty's halo -> buddy
    "recover-out": 10,  # survivor -> buddy: blocks destined for the casualty
    "replica": 11,  # the input-block ring of resilience=
    "mirror": 12,  # rfft_distributed's untangle exchanges
    "edge": 13,
    "nyquist": 14,
}


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

    By default the front half runs as one chunk group and the exchange
    is one ``alltoall_matrix`` collective.  With ``overlap=True`` the
    rank program is pipelined for communication/computation overlap
    (see :func:`soi_overlap_spans`): the halo travels as an ``isend``
    while the halo-free window prefix is convolved, each chunk group's
    all-to-all pieces are posted the moment the group's column block is
    transformed, and arriving pieces are drained ``waitany``-first into
    the preallocated segment buffer.  The floating-point schedule is
    unchanged — outputs and per-phase traffic byte totals are
    bit-for-bit identical to the blocking path (the conformance suite
    pins this); only message granularity and timing differ.  All ranks
    must pass the same *overlap* and *overlap_groups* (they are
    collective parameters, like counts in MPI).

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
    recovery — see :mod:`repro.parallel.resilience`.  It runs the piece
    exchange (one group unless ``overlap=True``).  Fault-free output
    is bit-identical to the blocking path; the extra traffic is the
    input replication ring plus one checksum vector per all-to-all
    piece.

    ``alltoall_algorithm`` selects the exchange schedule of step 4
    (``"pairwise"``/``"bruck"``/``"hierarchical"``; ``None`` defers to
    the world default) — collective, like every other parameter here.
    All schedules are bitwise-identical in output.  The name is
    validated on every path, but the piece exchange keeps its own
    isend/irecv schedule (its sends ARE the exchange).
    """
    be = get_backend(backend)
    algorithm = resolve_algorithm(alltoall_algorithm, comm.world)
    if trace is not None:
        trace.attach(comm.world)
    layout = soi_rank_layout(plan, comm.size)
    block = layout["block"]
    vec = np.ascontiguousarray(x_local, dtype=plan.dtype)
    require(
        vec.shape == (block,),
        f"rank {comm.rank}: expected local block of {block} samples, got {vec.shape}",
    )
    if comm.size == 1:
        overlap, resilience = False, None
    r = _Rank(comm, plan, be, layout, vec, resilience)
    q_local = layout["chunks_per_rank"]
    missing: set[int] = set()
    if overlap or resilience is not None:
        spans = [(0, q_local)]
        if overlap:
            spans = soi_overlap_spans(plan, block, overlap_groups)[0]
        missing = r.exchange_pieces(spans)
    else:
        # -- 1. halo: the forward-neighbour samples the last chunks read.
        # The send is zero-copy (the substrate passes references and
        # receivers only read): ``vec`` is private to this rank and
        # never mutated, so no defensive copy is needed.
        with comm.phase("halo"):
            halo = vec[: plan.halo]
            if comm.size > 1:
                left = (comm.rank - 1) % comm.size
                right = (comm.rank + 1) % comm.size
                halo = comm.sendrecv(halo, left, right, tag=TAGS["halo"])
        v_t = r.front_half(vec, halo, comm.rank * q_local, 0, q_local)
        # -- 4. THE all-to-all, as one collective in matrix form: rank d
        # owns segments [d*S, (d+1)*S), contiguous row blocks of the
        # transposed transform, so the packed sendbuf is one (P, S, rows)
        # view and the exchange moves whole-node row batches instead of
        # P² block objects (same bytes, same messages, bitwise-identical
        # rows — see hierarchical_matrix).  mat[src] is (S, rows_per_rank):
        # my segments, src's row range; (S, M') rows in src order.
        with comm.phase("alltoall"):
            mat = comm.alltoall_matrix(
                v_t.reshape(comm.size, r.s_per, -1), algorithm=algorithm
            )
        r.segs = np.ascontiguousarray(mat.transpose(1, 0, 2)).reshape(r.s_per, -1)

    # -- 5. segment FFTs + demodulation (in-order output); a rank that
    # lost a casualty's pieces runs it after the recovery instead. -------
    y_local = None
    with comm.phase("fft-m"):
        if not missing:
            y_local = r.fft_m(r.segs)
    if resilience is None:
        return y_local
    return resilience.commit(r, missing, y_local)


class _Rank:
    """One rank's pass through the program: the state its phases share.

    The ``resilience=`` hook reads it too: the buddy rebuilds a
    casualty's share with :meth:`front_half` and :meth:`fft_m`, the
    calls the casualty itself made.
    """

    def __init__(self, comm, plan, be, layout, vec, res) -> None:
        self.comm, self.plan, self.be, self.vec, self.res = comm, plan, be, vec, res
        self.layout = layout
        self.s_per = layout["segments_per_rank"]
        self.replica: np.ndarray | None = None
        self.slabs: list[np.ndarray] = []  # (R, S, cols) per chunk group
        self.segs: np.ndarray | None = None  # (S, M'): my segments

    def front_half(self, vec, tail, first_chunk, q0, q1) -> np.ndarray:
        """Steps 2-3, convolution + small FFTs, over windows ``[q0, q1)``.

        *vec* ++ *tail* is a block and the halo after it (zeros will do
        while every window in the span is halo-free); the kernel reads
        both where they lie, as ``(rows, P)`` views.  Passing the
        block's global chunk offset *first_chunk* puts every output at
        the position of the kernel's tile grid it has in the sequential
        call, which is what makes the two bit-for-bit equal (see
        repro.core.convolve) at any ``[q0, q1)`` cut.  The kernel emits
        z pre-transposed, ``(P, rows)``, and transforms its columns in
        that layout: exactly the segment-major orientation the
        all-to-all delivers, so neither the transform nor packing pays
        a copy.  Each stage keeps its own compute charge.
        """
        plan, comm = self.plan, self.comm
        body = vec.reshape(-1, plan.p)[q0 * plan.nu :]
        rows = (q1 - q0) * plan.mu
        with comm.phase("convolve"):
            v_t = plan._convolver()(
                body, tail.reshape(-1, plan.p), q1 - q0, first_chunk + q0,
                plan._fft_p(self.be),
            )
            comm.trace_compute(
                "convolve", soi_convolution_flops(rows * plan.p, plan.b), kind="conv"
            )
        with comm.phase("fft-p"):
            comm.trace_compute("fft-p", rows * fft_flops(plan.p))
        return v_t

    def fft_m(self, segs: np.ndarray) -> np.ndarray:
        """Segment FFTs + demodulation: the in-order output block."""
        plan = self.plan
        yt = _plan_fft(self.be, segs, plan)
        self.comm.trace_compute("fft-m", self.s_per * fft_flops(plan.m_over))
        return (yt[:, : plan.m] * plan.demod_recip[None, :]).reshape(-1)

    def exchange_pieces(self, spans: list[tuple[int, int]]) -> set[int]:
        """Steps 1-4 with THE all-to-all as per-group pieces (see
        :func:`soi_fft_distributed`); returns the sources found dead.

        The piece receives are posted with the first group.  Posting
        group g first retires group g-2's sends, bounding outstanding
        send memory.  Under ``resilience=`` the halo is the whole-block
        replica, each piece travels with its checksum, and the drain
        collects dead sources instead of raising.
        """
        comm, plan, res = self.comm, self.plan, self.res
        rank, size = comm.rank, comm.size
        rows_pr = self.layout["rows_per_rank"]
        q_local = self.layout["chunks_per_rank"]
        with comm.phase("halo" if res is None else "replicate"):
            tag = TAGS["halo" if res is None else "replica"]
            out = self.vec[: plan.halo] if res is None else self.vec
            halo_reqs = (
                comm.isend(out, (rank - 1) % size, tag=tag),
                comm.irecv((rank + 1) % size, tag=tag),
            )
        halo = None
        self.segs = np.empty((self.s_per, plan.m_over), dtype=plan.dtype)
        recvs: list[tuple] = []  # (src, col0, col1, request)
        sends: list[list] = []  # per group
        for g, (q0, q1) in enumerate(spans):
            last_read = (q1 - 1) * plan.nu * plan.p + plan.b * plan.p
            if halo is None and last_read > self.layout["block"]:
                halo = self._land_halo(halo_reqs[1])  # this group reads it
            tail = np.zeros(plan.halo, dtype=plan.dtype) if halo is None else halo
            slab = self.front_half(self.vec, tail, rank * q_local, q0, q1)
            slab = slab.reshape(size, self.s_per, -1)
            self.slabs.append(slab)
            with comm.phase("alltoall"):
                if g == 0:
                    if rank == 0:
                        comm.stats.record_alltoall("alltoall")
                    recvs = [
                        (src, src * rows_pr + a * plan.mu, src * rows_pr + b * plan.mu,
                         comm.irecv(src, tag=TAGS["piece"]))
                        for src in range(size) if src != rank for a, b in spans
                    ]
                if g >= 2:
                    waitall(sends[g - 2])
                msgs = list(slab) if res is None else [res.wrap(pc) for pc in slab]
                c0 = rank * rows_pr
                self.segs[:, c0 + q0 * plan.mu : c0 + q1 * plan.mu] = slab[rank]
                comm.stats.record_message(
                    "alltoall", rank, rank, _payload_bytes(msgs[rank])
                )
                sends.append([
                    comm.isend(msgs[d], d, tag=TAGS["piece"])
                    for d in range(size) if d != rank
                ])
        if halo is None:  # every window was halo-free: collect the halo anyway
            self._land_halo(halo_reqs[1])

        missing: set[int] = set()
        with comm.phase("alltoall"):
            while True:
                live = [p for p in recvs if p[0] not in missing and not p[3].completed]
                if not live:
                    break
                try:
                    i, got = waitany([p[3] for p in live])
                except RankFailedError as exc:
                    if res is None:
                        raise
                    missing.update(exc.ranks)
                    res.note(comm, "alltoall", exc.ranks)
                    continue
                src, a, b, _ = live[i]
                self.segs[:, a:b] = got if res is None else res.unwrap(comm, got, src)
            halo_reqs[0].wait()
            for group in sends[-2:]:
                waitall(group)
        return missing

    def _land_halo(self, req) -> np.ndarray:
        """Wait for the halo.  Under ``resilience=`` keep the replica it
        is the prefix of, or note its sender dead and go on with zeros
        (the commit then finds the replica lost)."""
        comm, plan, res = self.comm, self.plan, self.res
        with comm.phase("halo" if res is None else "replicate"):
            try:
                got = req.wait()
            except RankFailedError as exc:
                if res is None:
                    raise
                res.note(comm, "replicate", exc.ranks)
                return np.zeros(plan.halo, dtype=plan.dtype)
        if res is not None:
            self.replica = got
        return got[: plan.halo]


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
