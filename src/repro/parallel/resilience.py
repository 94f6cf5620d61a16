"""ABFT resilience for the distributed SOI FFT (survive one rank death).

The paper's advantage — ONE all-to-all — makes that single collective a
single point of failure: a rank dying mid-transform classically leaves
every survivor blocked in ``recv``.  This module is the opt-in
``resilience=`` mode of :func:`repro.parallel.soi_dist.soi_fft_distributed`
that lets the survivors finish the transform after a single rank
failure, built on the mini-ULFM substrate layer
(``world.failed_ranks()``, ``comm.shrink()``, deterministic
:class:`~repro.simmpi.errors.RankFailedError` on dead peers).

Protocol, per rank (phases labelled for traffic accounting and as
fault-plan kill boundaries):

1. ``replicate`` — each rank sends its FULL input block to its left
   neighbour (rank i -> (i-1) mod R).  The replica received from the
   right neighbour *subsumes the halo* (the halo is its prefix), so
   this replaces the halo exchange, and it makes rank (f-1) the
   **buddy** of rank f: the one survivor holding f's input.
2. ``convolve`` / ``fft-p`` — unchanged local math (bit-identical to
   the blocking path).
3. ``alltoall`` — tolerant variant: every block travels with a sidecar
   **checksum vector** (row-sums over the block, sent as a
   ``(block, chk)`` pair so the hot path never copies the payload), and
   each per-source receive catches :class:`RankFailedError`, collecting
   the missing sources instead of unwinding.  Validation against the
   checksum is bitwise (sender and receiver sum the same bytes in the
   same order) and *lazy*: it runs the moment any failure is in play
   and on every recovery-path block, while the fault-free hot path
   takes the block as-is (the wire itself is already covered by the
   reliable transport's checksums), keeping the overhead budget.
4. ``fft-m`` — computed immediately when nothing is missing (the
   fault-free fast path, bit-identical output to the blocking path).
5. ``commit`` — fault-free fast path: one world barrier after
   ``fft-m`` (success plus an empty failed set IS the agreement — any
   death permanently breaks the barrier).  On any failure the
   survivors fall into full agreement rounds: ``shrink()`` and
   allgather ``(failed_view, missing, replica_ok)`` until every view
   names the same failed set (retries shift the shrunk communicator's
   epoch so abandoned rounds cannot pollute later ones).  The decision
   is based SOLELY on the views agreeing — no post-agreement recheck.
6. ``recover`` — the buddy recomputes the dead rank's convolution
   slice from the replica (fetching the dead rank's halo — the prefix
   of rank (f+1)'s block — point-to-point), rebuilds the all-to-all
   blocks the casualty never sent, and distributes them to the ranks
   that reported them missing.  The survivors also forward their blocks
   *destined for* the casualty to the buddy, which assembles and
   transforms the dead rank's output block so the full spectrum
   survives (published via :class:`SoiResilience.recovered_blocks`).
   Every recovery byte and flop is charged to
   ``TrafficStats.record_recovery`` under phase ``recover``.

Unrecoverable cases raise a structured :class:`RankFailedError` on all
survivors (never a hang): more than one failure, or a rank that died
*before* replicating its input (the data is simply gone).
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.plan import SoiPlan
from ..dft.backends import FftBackend
from ..dft.flops import fft_flops, soi_convolution_flops
from ..simmpi.comm import Communicator, _payload_bytes
from ..simmpi.errors import RankFailedError, VerificationError

__all__ = ["SoiResilience", "REPLICA_TAG", "RECOVER_TAG", "RECOVER_OUT_TAG"]

# Point-to-point tags of the resilient path (7 and 8 belong to the
# pipelined overlap path).
RECOVER_TAG = 9  # buddy -> survivor: reconstructed all-to-all blocks
RECOVER_OUT_TAG = 10  # survivor -> buddy: blocks destined for the casualty
REPLICA_TAG = 11  # input-block replication ring
_A2A_TAG = -5  # same channel family as the blocking collective

# Commit-agreement rounds before giving up (monotone failed sets
# converge in at most one round per additional failure).
_MAX_COMMIT_ROUNDS_SLACK = 2


class SoiResilience:
    """Shared per-run state of one resilient distributed transform.

    Create ONE instance and pass the same object to every rank's
    ``soi_fft_distributed(..., resilience=...)`` call (it is the
    cross-rank blackboard, like the shared ``TrafficStats``).  After the
    run:

    - :attr:`degraded` — whether any failure was survived;
    - :attr:`failed` — the agreed failed set;
    - :attr:`recovered_blocks` — ``{dead_rank: (holder_rank, y_block)}``,
      the casualty's output block recomputed by its buddy;
    - :attr:`detections` — ``[(phase, rank, dead_rank), ...]`` first
      local observations of a failure, in detection order per rank.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.failed: tuple[int, ...] = ()
        self.recovered_blocks: dict[int, tuple[int, np.ndarray]] = {}
        self.detections: list[tuple[str, int, int]] = []
        self._seen: set[tuple[int, int]] = set()  # (observer, dead) pairs

    @property
    def degraded(self) -> bool:
        return bool(self.failed)

    def note_detection(self, phase: str, observer: int, dead: int) -> bool:
        """Record the first time *observer* sees *dead* down.  True if new."""
        with self._lock:
            if (observer, dead) in self._seen:
                return False
            self._seen.add((observer, dead))
            self.detections.append((phase, observer, dead))
            return True

    def set_failed(self, ranks: tuple[int, ...]) -> None:
        with self._lock:
            self.failed = tuple(sorted(set(self.failed) | set(ranks)))

    def record_block(self, dead: int, holder: int, y_block: np.ndarray) -> None:
        with self._lock:
            self.recovered_blocks[dead] = (holder, y_block)

    def finalize_inverse(self, plan: SoiPlan, rank: int) -> None:
        """Turn held forward blocks into inverse blocks (holder-local).

        The inverse transform runs the forward on conjugated input;
        whichever rank holds a recovered block applies the output
        conjugation and 1/N scale, mirroring
        :func:`~repro.parallel.soi_dist.soi_ifft_distributed`.
        """
        with self._lock:
            for dead, (holder, y) in list(self.recovered_blocks.items()):
                if holder == rank:
                    self.recovered_blocks[dead] = (
                        holder,
                        np.conj(y) / plan.n,
                    )


def _note(comm: Communicator, res: SoiResilience, phase: str, dead_ranks) -> None:
    """First-observation bookkeeping for a detected failure."""
    for dead in dead_ranks:
        if res.note_detection(phase, comm.rank, dead):
            comm.stats.record_failure_detected(phase)
            tracer = comm.world.tracer
            if tracer is not None and hasattr(tracer, "record_failure"):
                tracer.record_failure(phase, comm.rank, dead)


def _trace_recovery(
    comm: Communicator, name: str, nbytes: int = 0, flops: float = 0.0
) -> None:
    """Emit a ``recovery`` span on the rank's trace (when tracing is on)."""
    tracer = comm.world.tracer
    if tracer is not None and hasattr(tracer, "record_recovery"):
        tracer.record_recovery("recover", comm.rank, name, nbytes=nbytes, flops=flops)


def _checksums(blocks: np.ndarray) -> np.ndarray:
    """ABFT checksum vectors: row-sums over columns, ``(R, S, C) -> (R, S)``.

    The checksum travels alongside its block as a ``(block, chk)``
    message rather than a concatenated column, so the fault-free hot
    path never copies the payload.  Receivers recompute the identical
    sum over the identical bytes, so validation is bitwise, not
    tolerance-based.
    """
    return blocks.sum(axis=-1)


def _checked(piece: np.ndarray, chk: np.ndarray, src: int, rank: int) -> np.ndarray:
    """Verify one received block against its sidecar checksum vector."""
    if not np.array_equal(piece.sum(axis=1), chk):
        raise VerificationError(
            f"rank {rank}: ABFT checksum mismatch on block from rank {src}"
        )
    return piece


def _soi_fft_resilient(
    comm: Communicator,
    vec: np.ndarray,
    plan: SoiPlan,
    be: FftBackend,
    layout: dict[str, int],
    res: SoiResilience,
) -> np.ndarray:
    """The ``resilience=`` rank program (see the module docstring).

    Fault-free it is bit-identical to the blocking path's output: the
    replica's prefix IS the halo, the checksum rides beside the block
    (never concatenated into it), and every floating-point operation
    runs in the same order.
    """
    size = comm.size
    rank = comm.rank
    block = layout["block"]
    s_per = layout["segments_per_rank"]
    rows_pr = layout["rows_per_rank"]
    q_local = layout["chunks_per_rank"]
    left = (rank - 1) % size
    right = (rank + 1) % size

    # -- 1. replicate: full-block ring exchange (subsumes the halo). -----
    replica: np.ndarray | None = None
    with comm.phase("replicate"):
        try:
            replica = comm.sendrecv(vec, dest=left, source=right, tag=REPLICA_TAG)
        except RankFailedError as exc:
            _note(comm, res, "replicate", exc.ranks)
    halo = (
        replica[: plan.halo]
        if replica is not None
        else np.zeros(plan.halo, dtype=np.complex128)
    )

    # -- 2./3. convolution + small FFTs: identical local math. -----------
    # One call runs both stages; each phase keeps its own compute charge.
    with comm.phase("convolve"):
        winb = plan.window_view(vec, halo, q_local)
        v_t = plan.convolve_fft_p(winb, rank * q_local, be)
        comm.trace_compute(
            "convolve", soi_convolution_flops(rows_pr * plan.p, plan.b), kind="conv"
        )
    with comm.phase("fft-p"):
        comm.trace_compute("fft-p", rows_pr * fft_flops(plan.p))

    # -- 4. tolerant all-to-all with checksum columns. --------------------
    blocks = v_t.reshape(size, s_per, rows_pr)
    send_chk = _checksums(blocks)  # (R, S)
    pieces: list[np.ndarray | None] = [None] * size
    missing: set[int] = set()
    with comm.phase("alltoall"):
        if rank == 0:
            comm.stats.record_alltoall("alltoall")
        with comm._traced_collective("alltoall"):
            for dst in range(size):
                if dst != rank:
                    comm.send((blocks[dst], send_chk[dst]), dst, tag=_A2A_TAG)
            comm.stats.record_message(
                "alltoall", rank, rank,
                _payload_bytes((blocks[rank], send_chk[rank])),
            )
            pieces[rank] = blocks[rank]
            for src in range(size):
                if src == rank:
                    continue
                try:
                    piece, chk = comm.recv(src, tag=_A2A_TAG)
                except RankFailedError as exc:
                    missing.add(src)
                    _note(comm, res, "alltoall", exc.ranks)
                    continue
                # Validate eagerly once any failure is in play; on the
                # fault-free hot path take the block as-is (zero-copy) —
                # recovery-path traffic is always validated, and the
                # wire itself is covered by the reliable transport.
                if comm.world.failed_ranks():
                    pieces[src] = _checked(piece, chk, src, rank)
                else:
                    pieces[src] = piece

    # -- 5. fft-m: fault-free fast path (bit-identical output). ----------
    yt: np.ndarray | None = None
    with comm.phase("fft-m"):
        if not missing:
            segs = np.concatenate(pieces, axis=1)
            yt = be.fft(segs)
            comm.trace_compute("fft-m", s_per * fft_flops(plan.m_over))

    # -- 6. commit: survivors agree on the failed set. --------------------
    # Fault-free fast path: the world barrier doubles as the agreement.
    # It completes only when every rank is alive and present through its
    # fft-m (so every output block exists), and any death permanently
    # breaks it (``mark_failed`` aborts the barrier), so success plus an
    # empty failed set proves every rank's missing set is empty and
    # every replica arrived — no allgather needed.  A rank that skips
    # this path (missing non-empty) has already marked the world failed,
    # which broke the barrier, so the fast-path ranks unwind immediately
    # into the agreement rounds rather than hanging.  Phase entry here
    # is also the ``kill(..., phase="commit")`` boundary: a victim dies
    # before reaching the barrier, so survivors always detect it.  The
    # demodulation runs first — its result is identical whether or not
    # the commit later triggers a recovery with an empty missing set.
    y_local: np.ndarray | None = None
    fast_ok = False
    if not missing:
        y_local = (yt[:, : plan.m] * plan.demod_recip[None, :]).reshape(block)
        try:
            with comm.phase("commit"):
                comm.barrier()
            fast_ok = not comm.world.failed_ranks()
        except RankFailedError as exc:
            _note(comm, res, "commit", exc.ranks)
    agreed = (
        None
        if fast_ok
        else _commit_agreement(comm, res, tuple(sorted(missing)), replica is not None)
    )

    # -- 7. recovery (only when someone actually died). -------------------
    if agreed:
        views_missing = agreed["missing"]
        failed = agreed["failed"]
        res.set_failed(failed)
        _recover(
            comm, res, plan, be, layout, failed[0], views_missing,
            vec, replica, send_chk, blocks, pieces,
        )
        if missing:
            segs = np.concatenate(pieces, axis=1)
            yt = be.fft(segs)
            comm.stats.record_recovery("recover", flops=s_per * fft_flops(plan.m_over))
            _trace_recovery(comm, "redo-fft-m", flops=s_per * fft_flops(plan.m_over))

    if y_local is None:
        y_local = (yt[:, : plan.m] * plan.demod_recip[None, :]).reshape(block)
    return y_local


def _commit_agreement(
    comm: Communicator,
    res: SoiResilience,
    missing: tuple[int, ...],
    replica_ok: bool,
) -> dict | None:
    """Failure-agreement rounds over the shrunk communicator.

    Every rank contributes ``(failed_view, missing, replica_ok)``; the
    round commits when all views report the same failed set AND that set
    is exactly the ranks excluded from the round's membership.  Returns
    ``None`` for a clean (fault-free) commit, else a dict with the
    agreed ``failed`` set and the per-member ``missing`` map — or raises
    :class:`RankFailedError` when the situation is unrecoverable
    (multiple failures, a lost replica, or no convergence).
    """
    world = comm.world
    max_rounds = comm.size + _MAX_COMMIT_ROUNDS_SLACK
    for round_no in range(max_rounds):
        with comm.phase("commit"):
            failed_view = world.failed_ranks()
            sc = comm.shrink(epoch=round_no)
            my_view = (failed_view, missing, replica_ok)
            try:
                views = sc.allgather(my_view)
            except RankFailedError as exc:
                _note(comm, res, "commit", exc.ranks)
                continue
            sets = [v[0] for v in views]
            members_ok = tuple(
                r for r in range(world.nranks) if r not in set(sets[0])
            ) == sc.members
            if all(s == sets[0] for s in sets) and members_ok:
                agreed_failed = sets[0]
                if not agreed_failed:
                    return None  # fault-free commit
                if len(agreed_failed) > 1:
                    raise RankFailedError(
                        agreed_failed,
                        where="commit (multiple failures exceed single-failure ABFT)",
                    )
                dead = agreed_failed[0]
                buddy = (dead - 1) % world.nranks
                buddy_pos = sc.members.index(buddy)
                if not views[buddy_pos][2]:
                    raise RankFailedError(
                        agreed_failed,
                        where="commit (input replica lost with the failed rank)",
                    )
                _note(comm, res, "commit", agreed_failed)
                return {
                    "failed": agreed_failed,
                    "missing": {
                        m: tuple(views[i][1]) for i, m in enumerate(sc.members)
                    },
                }
        # Views disagreed: another rank observed a failure this rank has
        # not seen yet (or vice versa).  The failed set is monotone, so
        # one more round after the last death always converges.
    raise RankFailedError(
        comm.world.failed_ranks() or (comm.rank,),
        where=f"commit (no agreement after {max_rounds} rounds)",
    )


def _recover(
    comm: Communicator,
    res: SoiResilience,
    plan: SoiPlan,
    be: FftBackend,
    layout: dict[str, int],
    dead: int,
    views_missing: dict[int, tuple[int, ...]],
    vec: np.ndarray,
    replica: np.ndarray | None,
    send_chk: np.ndarray,
    blocks: np.ndarray,
    pieces: list,
) -> None:
    """Reconstruct the casualty's contribution (see module docstring §6).

    Mutates ``pieces`` in place (filling ``pieces[dead]`` on ranks that
    reported it missing) and publishes the casualty's recomputed output
    block through *res*.
    """
    size = comm.size
    rank = comm.rank
    s_per = layout["segments_per_rank"]
    rows_pr = layout["rows_per_rank"]
    q_local = layout["chunks_per_rank"]
    block = layout["block"]
    buddy = (dead - 1) % size
    halo_src = (dead + 1) % size
    needers = [m for m, miss in views_missing.items() if dead in miss]

    with comm.phase("recover"):
        if rank == buddy:
            # The dead rank's halo is the prefix of its right neighbour's
            # block; fetch it (local when R == 2: buddy IS the neighbour).
            if halo_src == rank:
                dead_halo = vec[: plan.halo]
            else:
                dead_halo = comm.recv(halo_src, tag=RECOVER_TAG)
                comm.stats.record_recovery("recover", nbytes=dead_halo.nbytes)
            # Bounded recompute of the casualty's convolution slice and
            # small FFTs — the same FP schedule the dead rank would have
            # run, so the reconstruction is bit-exact.
            winb = plan.window_view(replica, dead_halo, q_local)
            vt_dead = plan.convolve_fft_p(winb, dead * q_local, be)
            recompute_flops = (
                soi_convolution_flops(rows_pr * plan.p, plan.b)
                + rows_pr * fft_flops(plan.p)
            )
            comm.stats.record_recovery("recover", flops=recompute_flops)
            _trace_recovery(
                comm, f"recompute rank {dead} convolve+fft-p", flops=recompute_flops
            )
            dead_blocks = vt_dead.reshape(size, s_per, rows_pr)
            dead_chk = _checksums(dead_blocks)
            # Redistribute what the casualty never sent.
            for m in needers:
                if m == rank:
                    pieces[dead] = dead_blocks[m]
                else:
                    comm.send((dead_blocks[m], dead_chk[m]), m, tag=RECOVER_TAG)
                    nbytes = dead_blocks[m].nbytes + dead_chk[m].nbytes
                    comm.stats.record_recovery("recover", nbytes=nbytes)
                    _trace_recovery(comm, f"resend block->{m}", nbytes=nbytes)
            # Assemble and transform the casualty's own output block from
            # the blocks every survivor computed FOR it.
            dead_pieces: list[np.ndarray] = [None] * size  # type: ignore[list-item]
            dead_pieces[dead] = dead_blocks[dead]
            dead_pieces[rank] = blocks[dead]
            for src in range(size):
                if src in (dead, rank):
                    continue
                got, gchk = comm.recv(src, tag=RECOVER_OUT_TAG)
                comm.stats.record_recovery(
                    "recover", nbytes=got.nbytes + gchk.nbytes
                )
                dead_pieces[src] = _checked(got, gchk, src, rank)
            segs = np.concatenate(dead_pieces, axis=1)
            yt = be.fft(segs)
            comm.stats.record_recovery("recover", flops=s_per * fft_flops(plan.m_over))
            _trace_recovery(
                comm, f"rebuild rank {dead} output", flops=s_per * fft_flops(plan.m_over)
            )
            y_dead = (yt[:, : plan.m] * plan.demod_recip[None, :]).reshape(block)
            res.record_block(dead, rank, y_dead)
        else:
            if rank == halo_src:
                comm.send(vec[: plan.halo], buddy, tag=RECOVER_TAG)
            comm.send((blocks[dead], send_chk[dead]), buddy, tag=RECOVER_OUT_TAG)
            if dead in views_missing.get(rank, ()):
                got, gchk = comm.recv(buddy, tag=RECOVER_TAG)
                nbytes = got.nbytes + gchk.nbytes
                comm.stats.record_recovery("recover", nbytes=nbytes)
                _trace_recovery(comm, f"recovered block<-{buddy}", nbytes=nbytes)
                pieces[dead] = _checked(got, gchk, buddy, rank)
