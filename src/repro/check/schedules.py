"""Schedule fuzzing: seeded interleaving control for the simmpi runtime.

The thread-per-rank cluster of :mod:`repro.simmpi` makes races *possible*
(ranks share one address space) while the repo's invariants demand they
be *impossible to observe*: the distributed SOI FFT must be bitwise
identical to the sequential pipeline no matter how the OS interleaves
rank threads.  The default scheduler explores only a handful of
interleavings, so this module takes control of the nondeterminism:

- :class:`ScheduleController` attaches to a :class:`~repro.simmpi.transport.World`
  (via ``run_spmd(schedule=...)``) and intercepts every message delivery.
  With seeded probability a queued payload is *held* in a per-channel
  FIFO side pool and released later in a permuted order — the moment a
  receiver blocks on a channel with held traffic, the controller first
  releases messages from *other* channels, then the receiver's, so
  cross-channel arrival order is systematically permuted while per-channel
  FIFO order (MPI's non-overtaking guarantee, and the reliable
  transport's sequence numbers) is preserved.  Thread wakeup order is
  perturbed through a seeded rank start permutation and tiny seeded
  sleeps at send/recv boundaries.  Progress is guaranteed: releases are
  driven by the receivers' own wait loops, so a held message can only
  delay — never starve — the rank waiting for it.

- :func:`replay_interleavings` is the fuzzer proper: it runs a rank
  program once unperturbed as the reference, then replays it under N
  seeded controllers and asserts that outputs, traffic statistics and
  trace span structure are bitwise identical in every replay.  Any
  divergence is an interleaving-dependent result — a race.

Composition: the controller holds *wire-level* items after fault
injection and transport framing, so ``faults=``/``transport=`` compose
naturally (the receiver's loss detector treats held messages as
in-flight, keeping retransmit counts schedule-independent).

The controller deliberately has no opinion about *payloads*: like the
tracer it never copies, mutates or re-orders data within a channel, so
a race-free program cannot tell it is being fuzzed.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..dft.backends import DEFAULT_BACKEND
from ..simmpi.faults import _uniform
from ..simmpi.runtime import run_spmd
from ..trace.spans import TraceRecorder

__all__ = [
    "ScheduleController",
    "ReplayMismatch",
    "FuzzReport",
    "replay_interleavings",
    "fuzz_distributed_soi",
]


class ScheduleController:
    """Seeded interleaving perturbation for one or more ``run_spmd`` runs.

    Parameters
    ----------
    seed:
        Any hashable value; every decision is a pure function of
        ``(seed, decision key)`` via the same keyed-hash draw the chaos
        schedules use, so a controller is cheap to construct per replay.
    p_hold:
        Probability an arriving message is parked in the side pool
        instead of delivered immediately.
    hold_max:
        Bound on simultaneously held messages; beyond it the oldest
        queue drains first (keeps memory and latency bounded).
    p_cross_release:
        Probability that, when a blocked receiver drains its channel,
        one message of *another* held channel is released first — the
        cross-channel permutation knob.
    jitter_s / p_jitter:
        Maximum seeded sleep (and its probability) injected at
        send/recv boundaries to perturb thread wakeup order.
    hb:
        Optional :class:`repro.check.hb.HbTracker`; receives
        send/recv/barrier events for vector-clock maintenance.  A
        controller with ``p_hold=0, p_jitter=0`` degenerates into a pure
        happens-before observer.
    """

    def __init__(
        self,
        seed: Any = 0,
        *,
        p_hold: float = 0.5,
        hold_max: int = 8,
        p_cross_release: float = 0.6,
        jitter_s: float = 2e-4,
        p_jitter: float = 0.25,
        hb: Any | None = None,
    ) -> None:
        self.seed = seed
        self.p_hold = float(p_hold)
        self.hold_max = int(hold_max)
        self.p_cross_release = float(p_cross_release)
        self.jitter_s = float(jitter_s)
        self.p_jitter = float(p_jitter)
        self.hb = hb
        self._oplock = threading.Lock()
        self.new_run()

    # ---- per-run lifecycle (mirrors FaultPlan/TraceRecorder) -------------

    def new_run(self) -> None:
        """Reset per-run state; the seed (and hence the policy) is kept."""
        self._held: dict[tuple, deque] = {}
        self._held_total = 0
        self._step = 0  # delivery-decision counter (under the world's cv)
        self._opcount = 0  # send/recv jitter counter (under _oplock)
        self._delivery_log: list[tuple] = []
        if self.hb is not None:
            self.hb.new_run()

    def start_order(self, nranks: int) -> list[int]:
        """Seeded permutation in which ``run_spmd`` starts rank threads."""
        order = list(range(nranks))
        for i in range(nranks - 1, 0, -1):
            j = int(_uniform(self.seed, "start", i) * (i + 1))
            order[i], order[j] = order[j], order[i]
        return order

    # ---- delivery interception (all called with the world's cv held) -----

    def held_items(self, key: tuple) -> Iterable[Any]:
        """Messages currently parked for *key* (loss-detector support)."""
        return tuple(self._held.get(key, ()))

    def on_put(self, world: Any, key: tuple, item: Any) -> None:
        """Deliver *item* now, or park it for a later permuted release."""
        self._step += 1
        q = self._held.get(key)
        if not q:  # empty/absent: holding is optional
            u = _uniform(self.seed, "hold", key[0], key[1], key[2], self._step)
            if u >= self.p_hold:
                self._release_now(world, key, item, origin="direct")
                return
            q = self._held.setdefault(key, deque())
        # A channel with held traffic must keep holding (per-channel FIFO).
        q.append(item)
        self._held_total += 1
        while self._held_total > self.hold_max:
            self._release_one(world, exclude=None, salt="overflow")

    def on_wait(self, world: Any, key: tuple) -> bool:
        """A receiver found *key* empty.  Release held traffic; True if
        something was released *for this key* (the caller re-checks)."""
        q = self._held.get(key)
        if not q:
            return False
        # Cross-channel permutation: drain somebody else's mail first.
        self._step += 1
        if (
            self._held_total > len(q)
            and _uniform(self.seed, "cross", key[0], key[1], key[2], self._step)
            < self.p_cross_release
        ):
            self._release_one(world, exclude=key, salt="cross")
        self._release_now(world, key, q.popleft(), origin="waited")
        self._held_total -= 1
        world._cv.notify_all()
        return True

    def _release_one(self, world: Any, exclude: tuple | None, salt: str) -> None:
        """Release the head message of one seeded-chosen held channel."""
        keys = sorted(
            (k for k, q in self._held.items() if q and k != exclude),
            key=repr,
        )
        if not keys:
            return
        self._step += 1
        pick = keys[int(_uniform(self.seed, salt, self._step) * len(keys))]
        self._release_now(world, pick, self._held[pick].popleft(), origin=salt)
        self._held_total -= 1
        world._cv.notify_all()

    def _release_now(self, world: Any, key: tuple, item: Any, origin: str) -> None:
        world._deliver(key, item)
        self._delivery_log.append((key[0], key[1], key[2], origin))

    # ---- observation hooks (called outside the cv) ------------------------

    def _jitter(self, kind: str, rank: int) -> None:
        if self.p_jitter <= 0.0 or self.jitter_s <= 0.0:
            return
        with self._oplock:
            c = self._opcount
            self._opcount += 1
        if _uniform(self.seed, "jit", kind, rank, c) < self.p_jitter:
            time.sleep(self.jitter_s * _uniform(self.seed, "jitlen", kind, rank, c))

    def on_send(self, world: Any, src: int, dst: int, tag: Any) -> None:
        if self.hb is not None:
            self.hb.on_send(src, dst, tag)
        self._jitter("send", src)

    def on_recv(self, world: Any, src: int, dst: int, tag: Any) -> None:
        if self.hb is not None:
            self.hb.on_recv(src, dst, tag)
        self._jitter("recv", dst)

    def on_barrier_enter(self, world: Any, rank: int) -> None:
        if self.hb is not None:
            self.hb.on_barrier_enter(rank)

    def on_barrier_exit(self, world: Any, rank: int) -> None:
        if self.hb is not None:
            self.hb.on_barrier_exit(rank)

    # ---- reporting --------------------------------------------------------

    def fingerprint(self) -> str:
        """Digest of the realised global delivery order (one per replay).

        Two replays with different fingerprints provably exercised
        different message interleavings; the fuzzer counts distinct
        fingerprints to show the schedule space is actually explored.

        A seed replays an interleaving (same seed, same fingerprint) only
        on the DES engine.  On threads a seed names a *policy*: its draws
        follow a step counter that advances in thread-timing order.
        """
        blob = "|".join(map(repr, self._delivery_log)).encode()
        return hashlib.blake2b(blob, digest_size=12).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduleController(seed={self.seed!r}, p_hold={self.p_hold}, "
            f"hold_max={self.hold_max}, held={self._held_total})"
        )


# ----------------------------------------------------------------------
# The replay fuzzer: N interleavings, bitwise-identical everything.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayMismatch:
    """One divergence between a fuzzed replay and the reference run.

    *schedule_seed* replays the interleaving only on the DES engine; a
    thread-engine seed names a policy (:meth:`ScheduleController.fingerprint`),
    so replay a thread-engine mismatch with ``run_kwargs={"engine": "des"}``.
    """

    schedule_seed: str
    field: str  # "outputs" | "stats" | "trace"
    detail: str


@dataclass
class FuzzReport:
    """Outcome of :func:`replay_interleavings` (JSON-safe via as_dict)."""

    nranks: int
    schedules: int
    base_seed: Any
    fingerprints: list[str] = field(default_factory=list)
    mismatches: list[ReplayMismatch] = field(default_factory=list)

    @property
    def distinct_interleavings(self) -> int:
        return len(set(self.fingerprints))

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> dict:
        return {
            "nranks": self.nranks,
            "schedules": self.schedules,
            "base_seed": str(self.base_seed),
            "distinct_interleavings": self.distinct_interleavings,
            "fingerprints": list(self.fingerprints),
            "deterministic": self.ok,
            "mismatches": [
                {"schedule_seed": m.schedule_seed, "field": m.field, "detail": m.detail}
                for m in self.mismatches
            ],
        }


def _payload_equal(a: Any, b: Any) -> bool:
    """Bitwise equality over nested lists/tuples/dicts of arrays/scalars."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and bool(np.array_equal(a, b))
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(_payload_equal(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_payload_equal(a[k], b[k]) for k in a)
        )
    return bool(a == b)


def span_structure(recorder: TraceRecorder) -> list[tuple]:
    """Interleaving-independent view of a recorded timeline: each rank's
    non-wait spans in recording order, without timestamps.

    Stamps and wait spans are timing; the rest is a pure function of the
    program and the fault seed (per-channel ordinals pair every receive
    with its send whatever the interleaving).
    """
    return [
        (s.rank, s.kind, s.name, s.phase, s.peer, s.nbytes, s.flops)
        for s in recorder.timeline().spans
        if s.kind != "wait"
    ]


def replay_interleavings(
    program: Callable[..., Any],
    nranks: int,
    *,
    schedules: int = 10,
    seed: Any = 0,
    compare_traces: bool = True,
    controller_kwargs: dict | None = None,
    run_kwargs: dict | None = None,
) -> FuzzReport:
    """Replay *program* under *schedules* seeded interleavings.

    The program is executed once without a controller (the reference),
    then once per schedule seed ``f"{seed}/{i}"``.  Every replay must
    reproduce the reference bitwise in three projections:

    - per-rank return values (nested arrays compared bit-for-bit),
    - traffic statistics (``TrafficStats.as_dict()``),
    - trace span structure (:func:`span_structure`: each rank's
      non-wait spans in order, by kind, name, phase, peer, bytes and
      flops).

    Divergences are collected — not raised — so a single fuzzing run
    reports every racy projection at once.
    """
    run_kwargs = dict(run_kwargs or {})
    ref_rec = TraceRecorder() if compare_traces else None
    ref = run_spmd(nranks, program, trace=ref_rec, **run_kwargs)
    ref_stats = ref.stats.as_dict()
    ref_spans = span_structure(ref_rec) if compare_traces else None

    report = FuzzReport(nranks=nranks, schedules=schedules, base_seed=seed)
    for i in range(schedules):
        sched_seed = f"{seed}/{i}"
        controller = ScheduleController(seed=sched_seed, **(controller_kwargs or {}))
        rec = TraceRecorder() if compare_traces else None
        res = run_spmd(nranks, program, trace=rec, schedule=controller, **run_kwargs)
        report.fingerprints.append(controller.fingerprint())
        if not _payload_equal(ref.values, res.values):
            report.mismatches.append(
                ReplayMismatch(sched_seed, "outputs", "per-rank values diverged")
            )
        if res.stats.as_dict() != ref_stats:
            report.mismatches.append(
                ReplayMismatch(sched_seed, "stats", "traffic statistics diverged")
            )
        if compare_traces:
            spans = span_structure(rec)
            if spans != ref_spans:
                report.mismatches.append(
                    ReplayMismatch(
                        sched_seed,
                        "trace",
                        f"span structure diverged ({len(spans)} vs {len(ref_spans)})",
                    )
                )
    return report


def fuzz_distributed_soi(
    *,
    n: int = 4096,
    p: int = 8,
    nranks: int = 4,
    backend: str = DEFAULT_BACKEND,
    schedules: int = 25,
    seed: Any = 0,
    window: Any = "full",
    overlap: bool = False,
    overlap_groups: int = 2,
    compare_traces: bool | None = None,
    controller_kwargs: dict | None = None,
    run_kwargs: dict | None = None,
) -> FuzzReport:
    """Fuzz the distributed SOI FFT — the repo's flagship determinism claim.

    Each replay runs ``soi_fft_distributed`` on *nranks* ranks under a
    distinct seeded interleaving; the report asserts all of them agree
    bitwise with the unperturbed reference (outputs, traffic, trace).

    With ``overlap=True`` the pipelined path is fuzzed instead.  Its
    outputs and traffic statistics are held to the same bitwise
    standard, but the trace comparison defaults to off: the pipelined
    drain claims pieces via :func:`~repro.simmpi.requests.waitany` in
    *arrival* order, and the trace — which records receives at the
    program's observation points — faithfully reflects that order, so
    traced span structure is a function of the schedule by design (pass
    ``compare_traces=True`` to override and see exactly that).

    *run_kwargs* forwards to :func:`~repro.simmpi.run_spmd` for both
    the reference and every replay — e.g. ``{"engine": "des"}`` fuzzes
    the discrete-event scheduler's permuted message releases, or
    ``{"ranks_per_node": 2, "alltoall_algorithm": "hierarchical"}``
    fuzzes the node-aware schedule.
    """
    from ..core.plan import soi_plan_for
    from ..parallel.soi_dist import soi_fft_distributed

    if compare_traces is None:
        compare_traces = not overlap
    plan = soi_plan_for(n, p, window=window)
    rng = np.random.default_rng(
        int(hashlib.blake2b(str(seed).encode(), digest_size=4).hexdigest(), 16)
    )
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    block = n // nranks

    def program(comm):
        lo = comm.rank * block
        return soi_fft_distributed(
            comm,
            x[lo : lo + block],
            plan,
            backend=backend,
            overlap=overlap,
            overlap_groups=overlap_groups,
        )

    return replay_interleavings(
        program,
        nranks,
        schedules=schedules,
        seed=seed,
        compare_traces=compare_traces,
        controller_kwargs=controller_kwargs,
        run_kwargs=run_kwargs,
    )
