"""ABFT resilience for the distributed SOI FFT (survive one rank death).

The paper's advantage — ONE all-to-all — makes that single collective a
single point of failure: a rank dying mid-transform classically leaves
every survivor blocked in ``recv``.  This module is the opt-in
``resilience=`` mode of :func:`repro.parallel.soi_dist.soi_fft_distributed`
that lets the survivors finish the transform after a single rank
failure, built on the mini-ULFM substrate layer
(``world.failed_ranks()``, ``comm.shrink()``, deterministic
:class:`~repro.simmpi.errors.RankFailedError` on dead peers).

It is a hook on the rank program's piece exchange, not a program of
its own, so it composes with ``overlap=`` and works at either
precision.  What it adds to the program's phases (which stay the
fault-plan kill boundaries):

1. ``replicate`` — each rank sends its FULL input block to its left
   neighbour (rank i -> (i-1) mod R).  The replica received from the
   right neighbour *subsumes the halo* (the halo is its prefix), so
   this replaces the halo exchange, and it makes rank (f-1) the
   **buddy** of rank f: the one survivor holding f's input.
2. ``alltoall`` — tolerant variant: every piece travels with a sidecar
   **checksum vector** (row-sums over the piece in the plan's dtype,
   sent as a ``(piece, chk)`` pair so the hot path never copies the
   payload), and the drain catches :class:`RankFailedError`,
   collecting the missing sources instead of unwinding; a source with
   any piece missing counts as missing.  Validation against the
   checksum is bitwise (sender and receiver sum the same bytes in the
   same order) and *lazy*: it runs the moment any failure is in play
   and on every recovery-path block, while the fault-free hot path
   takes the piece as-is (the wire itself is already covered by the
   reliable transport's checksums), keeping the overhead budget.
3. ``fft-m`` — computed immediately when nothing is missing (the
   fault-free fast path, bit-identical output to the blocking path).
4. ``commit`` — fault-free fast path: one world barrier after
   ``fft-m`` (success plus an empty failed set IS the agreement — any
   death permanently breaks the barrier).  On any failure the
   survivors fall into full agreement rounds: ``shrink()`` and
   allgather ``(failed_view, missing, replica_ok)`` until every view
   names the same failed set (retries shift the shrunk communicator's
   epoch so abandoned rounds cannot pollute later ones).  The decision
   is based SOLELY on the views agreeing — no post-agreement recheck.
5. ``recover`` — the buddy recomputes the dead rank's convolution
   slice from the replica (fetching the dead rank's halo — the prefix
   of rank (f+1)'s block — point-to-point), rebuilds the whole
   all-to-all blocks the casualty never sent, and distributes them to
   the ranks that reported them missing.  One chunk group or many, a
   block is bitwise what the casualty's pieces held: fused fft-p
   equals staged fft-p at any chunk cut.  The survivors also forward
   their blocks *destined for* the casualty to the buddy, which
   assembles and transforms the dead rank's output block so the full
   spectrum survives (published via
   :class:`SoiResilience.recovered_blocks`).  Every recovery byte and
   flop is charged to ``TrafficStats.record_recovery`` under phase
   ``recover``.

Unrecoverable cases raise a structured :class:`RankFailedError` on all
survivors (never a hang): more than one failure, or a rank that died
*before* replicating its input (the data is simply gone).
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.plan import SoiPlan
from ..dft.flops import fft_flops, soi_convolution_flops
from ..simmpi.comm import Communicator
from ..simmpi.errors import RankFailedError, VerificationError
from ..simmpi.transport import _payload_bytes
from .soi_dist import TAGS, _Rank

__all__ = ["SoiResilience"]

# Commit-agreement rounds before giving up (monotone failed sets
# converge in at most one round per additional failure).
_MAX_COMMIT_ROUNDS_SLACK = 2


class SoiResilience:
    """Shared per-run state of one resilient distributed transform, and
    the hook the rank program calls.

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

    def note(self, comm: Communicator, phase: str, dead_ranks) -> None:
        """Record each first time *comm*'s rank sees a peer down."""
        for dead in dead_ranks:
            with self._lock:
                if (comm.rank, dead) in self._seen:
                    continue
                self._seen.add((comm.rank, dead))
                self.detections.append((phase, comm.rank, dead))
            comm.stats.record_failure_detected(phase)
            tracer = comm.world.tracer
            if tracer is not None:
                tracer.record_failure(phase, comm.rank, dead)

    @staticmethod
    def wrap(piece: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """An all-to-all piece with its checksum vector, ``(piece, chk)``."""
        return piece, piece.sum(axis=-1)

    @staticmethod
    def unwrap(comm: Communicator, msg: tuple, src: int) -> np.ndarray:
        """The piece of a received ``(piece, chk)``, validated against
        its checksum once any failure is in play."""
        piece, chk = msg
        if comm.world.failed_ranks() and not np.array_equal(piece.sum(axis=-1), chk):
            raise VerificationError(
                f"rank {comm.rank}: ABFT checksum mismatch on block from rank {src}"
            )
        return piece

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

    def commit(
        self, r: _Rank, missing: set[int], y_local: np.ndarray | None
    ) -> np.ndarray:
        """The ``commit`` phase, and ``recover`` if someone died.

        Called by the rank program after ``fft-m`` with the sources its
        drain found dead and its output block (``None`` when it had to
        skip ``fft-m``); returns the output block.

        Fault-free fast path: the world barrier doubles as the
        agreement.  It completes only when every rank is alive and
        present through its fft-m (so every output block exists), and
        any death permanently breaks it (``mark_failed`` aborts the
        barrier), so success plus an empty failed set proves every
        rank's missing set is empty and every replica arrived — no
        allgather needed.  A rank that skips this path (missing
        non-empty) has already marked the world failed, which broke the
        barrier, so the fast-path ranks unwind immediately into the
        agreement rounds rather than hanging.  Phase entry here is also
        the ``kill(..., phase="commit")`` boundary: a victim dies before
        reaching the barrier, so survivors always detect it.
        """
        comm = r.comm
        fast_ok = False
        if not missing:
            try:
                with comm.phase("commit"):
                    comm.barrier()
                fast_ok = not comm.world.failed_ranks()
            except RankFailedError as exc:
                self.note(comm, "commit", exc.ranks)
        agreed = (
            None
            if fast_ok
            else _commit_agreement(
                comm, self, tuple(sorted(missing)), r.replica is not None
            )
        )
        if agreed:
            self.set_failed(agreed["failed"])
            _recover(r, self, agreed["failed"][0], agreed["missing"])
            if missing:
                y_local = r.fft_m(r.segs)
                _charge(comm, "redo-fft-m", flops=r.s_per * fft_flops(r.plan.m_over))
        return y_local


def _charge(comm: Communicator, name: str, nbytes: int = 0, flops: int = 0) -> None:
    """Charge recovery work to ``TrafficStats`` and name it on the trace.

    Recovery compute runs through the rank program's own stages, whose
    compute spans already carry its flops on the timeline; the
    ``recovery`` span names the work and carries the bytes.
    """
    comm.stats.record_recovery("recover", nbytes=nbytes, flops=flops)
    tracer = comm.world.tracer
    if tracer is not None:
        tracer.record_recovery("recover", comm.rank, name, nbytes=nbytes)


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
                res.note(comm, "commit", exc.ranks)
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
                res.note(comm, "commit", agreed_failed)
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
    r: _Rank,
    res: SoiResilience,
    dead: int,
    views_missing: dict[int, tuple[int, ...]],
) -> None:
    """Reconstruct the casualty's contribution (module docstring, 5.).

    Fills the casualty's columns of ``r.segs`` on ranks that reported
    it missing, and publishes the casualty's recomputed output block
    through *res*.
    """
    comm, plan = r.comm, r.plan
    size, rank = comm.size, comm.rank
    rows_pr = r.layout["rows_per_rank"]
    q_local = r.layout["chunks_per_rank"]
    buddy = (dead - 1) % size
    halo_src = (dead + 1) % size
    needers = [m for m, miss in views_missing.items() if dead in miss]

    def cols(src: int) -> slice:
        return slice(src * rows_pr, (src + 1) * rows_pr)

    with comm.phase("recover"):
        if rank == buddy:
            # The dead rank's halo is the prefix of its right neighbour's
            # block; fetch it (local when R == 2: buddy IS the neighbour).
            if halo_src == rank:
                dead_halo = r.vec[: plan.halo]
            else:
                dead_halo = comm.recv(halo_src, tag=TAGS["recover"])
                _charge(comm, f"halo<-{halo_src}", nbytes=dead_halo.nbytes)
            # Bounded recompute of the casualty's front half — the call
            # the dead rank itself made, so the reconstruction is
            # bit-exact.
            dead_blocks = r.front_half(
                r.replica, dead_halo, dead * q_local, 0, q_local
            ).reshape(size, r.s_per, rows_pr)
            _charge(
                comm, f"recompute rank {dead} convolve+fft-p",
                flops=soi_convolution_flops(rows_pr * plan.p, plan.b)
                + rows_pr * fft_flops(plan.p),
            )
            # Redistribute what the casualty never sent.
            for m in needers:
                if m == rank:
                    r.segs[:, cols(dead)] = dead_blocks[m]
                else:
                    msg = res.wrap(dead_blocks[m])
                    comm.send(msg, m, tag=TAGS["recover"])
                    _charge(comm, f"resend block->{m}", nbytes=_payload_bytes(msg))
            # Assemble and transform the casualty's own output block from
            # the blocks every survivor computed FOR it.
            dead_segs = np.empty_like(r.segs)
            dead_segs[:, cols(dead)] = dead_blocks[dead]
            dead_segs[:, cols(rank)] = _block_for(r, dead)
            for src in range(size):
                if src not in (dead, rank):
                    msg = comm.recv(src, tag=TAGS["recover-out"])
                    _charge(comm, f"block<-{src}", nbytes=_payload_bytes(msg))
                    dead_segs[:, cols(src)] = res.unwrap(comm, msg, src)
            res.record_block(dead, rank, r.fft_m(dead_segs))
            _charge(
                comm, f"rebuild rank {dead} output",
                flops=r.s_per * fft_flops(plan.m_over),
            )
        else:
            if rank == halo_src:
                comm.send(r.vec[: plan.halo], buddy, tag=TAGS["recover"])
            comm.send(res.wrap(_block_for(r, dead)), buddy, tag=TAGS["recover-out"])
            if dead in views_missing.get(rank, ()):
                msg = comm.recv(buddy, tag=TAGS["recover"])
                _charge(comm, f"recovered block<-{buddy}", nbytes=_payload_bytes(msg))
                r.segs[:, cols(dead)] = res.unwrap(comm, msg, buddy)


def _block_for(r: _Rank, dst: int) -> np.ndarray:
    """The rank's whole all-to-all block for *dst*, over all chunk groups."""
    return np.concatenate([slab[dst] for slab in r.slabs], axis=1)
