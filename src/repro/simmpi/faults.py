"""Deterministic fault injection for the simulated message-passing runtime.

Chaos engineering for :mod:`repro.simmpi`: every wire transfer can be
dropped, duplicated, delayed, truncated or bit-flipped, and a rank can
be killed at a named phase boundary — all *reproducibly*.  Two front
ends share one engine interface:

- :class:`FaultPlan` — an explicit list of :class:`FaultSpec` entries,
  each keyed by ``(phase, src, dst, delivery-index)`` with a bounded
  firing count.  "Drop the 3rd halo message from rank 1 to rank 0."
- :class:`ChaosSchedule` — a seeded pseudo-random sweep: each delivery
  key is hashed together with the seed into a uniform draw that selects
  at most one fault kind by cumulative probability.  The decision is a
  *pure function* of ``(seed, phase, src, dst, index, attempt)``, so it
  is independent of thread interleaving: the same seed always produces
  the same fault sequence, retransmit counts and traffic statistics.

Under a :class:`~repro.simmpi.transport.TransportPolicy` the delivery index
is the per-channel sequence number (and *attempt* counts
retransmissions of that sequence number); on the raw substrate it is a
per-``(phase, src, dst)`` send counter.  Both are deterministic per
sender thread.
"""

from __future__ import annotations

import hashlib
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "ChaosSchedule", "corrupt_payload"]

#: Wire-level fault kinds (``kill`` targets a rank at a phase boundary).
FAULT_KINDS = ("drop", "duplicate", "delay", "truncate", "bitflip", "kill")


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault, keyed by ``(phase, src, dst, index)``.

    ``None`` in a key field is a wildcard.  ``times`` bounds how often
    the spec fires across the plan's lifetime (``None`` = unlimited —
    e.g. a permanently cut link); firing state survives
    :meth:`FaultPlan.new_run` so a bounded fault consumed before a rank
    restart stays consumed.
    """

    kind: str
    phase: str | None = None
    src: int | None = None
    dst: int | None = None
    index: int | None = None  # delivery index within the (phase, src, dst) flow
    times: int | None = 1
    delay_s: float = 0.02  # "delay" faults: extra in-flight latency
    keep_fraction: float = 0.5  # "truncate" faults: prefix kept
    bit: int = 54  # "bitflip" faults: bit position (54 = float64 exponent)
    rank: int | None = None  # "kill" faults: the rank to kill

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use one of {FAULT_KINDS}")
        if self.kind == "kill" and self.rank is None:
            raise ValueError("kill faults need rank=")

    def matches(self, phase: str, src: int, dst: int, index: int) -> bool:
        return (
            self.kind != "kill"
            and (self.phase is None or self.phase == phase)
            and (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.index is None or self.index == index)
        )


class FaultPlan:
    """A deterministic schedule of injected faults (see module docstring).

    Thread-safe; one plan drives one :class:`~repro.simmpi.transport.World`
    (or several restart attempts of it via :meth:`new_run`).  Fluent
    helpers build plans readably::

        plan = FaultPlan().drop(phase="alltoall", src=0, dst=1).kill(2, phase="halo")
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self._specs: list[FaultSpec] = list(specs)
        self._lock = threading.Lock()
        self._fired: defaultdict[int, int] = defaultdict(int)  # spec position -> count
        self._counters: defaultdict[tuple, int] = defaultdict(int)  # raw delivery idx
        self._kill_visits: defaultdict[tuple, int] = defaultdict(int)
        self._fired_hash_kills: set[tuple] = set()
        self.log: list[tuple] = []  # (kind, phase, src, dst, index) of every firing

    # ---- construction ----------------------------------------------------

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self._specs.append(spec)
        return self

    def _add_kind(self, kind: str, **kw: Any) -> "FaultPlan":
        return self.add(FaultSpec(kind=kind, **kw))

    def drop(self, **kw: Any) -> "FaultPlan":
        return self._add_kind("drop", **kw)

    def duplicate(self, **kw: Any) -> "FaultPlan":
        return self._add_kind("duplicate", **kw)

    def delay(self, **kw: Any) -> "FaultPlan":
        return self._add_kind("delay", **kw)

    def truncate(self, **kw: Any) -> "FaultPlan":
        return self._add_kind("truncate", **kw)

    def bitflip(self, **kw: Any) -> "FaultPlan":
        return self._add_kind("bitflip", **kw)

    def kill(self, rank: int, phase: str | None = None, **kw: Any) -> "FaultPlan":
        return self.add(FaultSpec(kind="kill", rank=rank, phase=phase, **kw))

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        return tuple(self._specs)

    # ---- run lifecycle ---------------------------------------------------

    def new_run(self) -> None:
        """Reset per-run delivery counters; keep consumed firing budgets.

        Called by the launcher at every (re)start so a restarted world
        counts deliveries from zero, while bounded faults that already
        fired (``times``) stay consumed — the restart can make progress.
        """
        with self._lock:
            self._counters.clear()
            self._kill_visits.clear()

    def reset(self) -> None:
        """Full reset, including firing budgets (a fresh identical plan)."""
        with self._lock:
            self._counters.clear()
            self._kill_visits.clear()
            self._fired.clear()
            self._fired_hash_kills.clear()
            self.log.clear()

    # ---- engine interface (called by the communicator) -------------------

    def next_index(self, phase: str, src: int, dst: int) -> int:
        """Raw-substrate delivery index: sends so far on this flow."""
        with self._lock:
            key = (phase, src, dst)
            idx = self._counters[key]
            self._counters[key] += 1
            return idx

    def actions_for(
        self, phase: str, src: int, dst: int, index: int, attempt: int = 0
    ) -> list[FaultSpec]:
        """Faults to apply to one wire delivery (may be empty)."""
        out: list[FaultSpec] = []
        with self._lock:
            for pos, spec in enumerate(self._specs):
                if not spec.matches(phase, src, dst, index):
                    continue
                if spec.times is not None and self._fired[pos] >= spec.times:
                    continue
                self._fired[pos] += 1
                self.log.append((spec.kind, phase, src, dst, index))
                out.append(spec)
        return out

    def should_kill(self, rank: int, phase: str) -> bool:
        """Whether *rank* dies on entering *phase* (consumes the fault)."""
        with self._lock:
            self._kill_visits[(rank, phase)] += 1
            for pos, spec in enumerate(self._specs):
                if spec.kind != "kill" or spec.rank != rank:
                    continue
                if spec.phase is not None and spec.phase != phase:
                    continue
                if spec.times is not None and self._fired[pos] >= spec.times:
                    continue
                self._fired[pos] += 1
                self.log.append(("kill", phase, rank, rank, 0))
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({len(self._specs)} specs, {len(self.log)} fired)"


def _uniform(*key: Any) -> float:
    """Stable uniform draw in [0, 1) from a hashable key.

    BLAKE2 rather than CRC32: CRC is linear, so related keys (e.g. the
    same delivery at attempt 0 and 1) would produce draws related by a
    constant XOR mask — identical threshold decisions.  A cryptographic
    mixer makes the draws effectively independent while staying
    deterministic across processes and platforms.
    """
    digest = hashlib.blake2b("|".join(map(str, key)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class ChaosSchedule(FaultPlan):
    """Seeded probabilistic fault schedule (plus optional explicit specs).

    Each wire delivery, identified by ``(phase, src, dst, index,
    attempt)``, receives one uniform pseudo-random draw derived from the
    seed; cumulative probabilities select at most one fault kind.  The
    per-kind probabilities must sum to at most 1.

    ``p_kill`` is evaluated per ``(rank, phase)`` entry; a hashed kill
    that fires is remembered across :meth:`new_run` (the replacement
    rank does not die again), so bounded restarts converge.

    ``phases`` optionally restricts the probabilistic faults to a set of
    phase labels (explicit specs are unaffected).
    """

    def __init__(
        self,
        seed: int,
        p_drop: float = 0.0,
        p_duplicate: float = 0.0,
        p_delay: float = 0.0,
        p_truncate: float = 0.0,
        p_bitflip: float = 0.0,
        p_kill: float = 0.0,
        delay_s: float = 0.02,
        keep_fraction: float = 0.5,
        bit: int = 54,
        phases: Iterable[str] | None = None,
        specs: Iterable[FaultSpec] = (),
    ) -> None:
        super().__init__(specs)
        total = p_drop + p_duplicate + p_delay + p_truncate + p_bitflip
        if not 0.0 <= total <= 1.0:
            raise ValueError(f"fault probabilities sum to {total}; must be in [0, 1]")
        self.seed = int(seed)
        self._ladder = tuple(
            (kind, p)
            for kind, p in (
                ("drop", p_drop),
                ("duplicate", p_duplicate),
                ("delay", p_delay),
                ("truncate", p_truncate),
                ("bitflip", p_bitflip),
            )
            if p > 0.0
        )
        self.p_kill = p_kill
        self.delay_s = delay_s
        self.keep_fraction = keep_fraction
        self.bit = bit
        self.phases = frozenset(phases) if phases is not None else None

    def actions_for(
        self, phase: str, src: int, dst: int, index: int, attempt: int = 0
    ) -> list[FaultSpec]:
        out = super().actions_for(phase, src, dst, index, attempt)
        if not self._ladder or (self.phases is not None and phase not in self.phases):
            return out
        u = _uniform(self.seed, phase, src, dst, index, attempt)
        acc = 0.0
        for kind, p in self._ladder:
            acc += p
            if u < acc:
                with self._lock:
                    self.log.append((kind, phase, src, dst, index))
                out.append(
                    FaultSpec(
                        kind=kind,
                        phase=phase,
                        src=src,
                        dst=dst,
                        index=index,
                        times=None,
                        delay_s=self.delay_s,
                        keep_fraction=self.keep_fraction,
                        bit=self.bit,
                    )
                )
                break
        return out

    def should_kill(self, rank: int, phase: str) -> bool:
        if super().should_kill(rank, phase):
            return True
        if self.p_kill <= 0.0 or (self.phases is not None and phase not in self.phases):
            return False
        with self._lock:
            visit = self._kill_visits[(rank, phase)]  # already bumped by super()
            key = (rank, phase, visit)
            if key in self._fired_hash_kills:
                return False
            if _uniform(self.seed, "kill", rank, phase, visit) < self.p_kill:
                self._fired_hash_kills.add(key)
                self.log.append(("kill", phase, rank, rank, visit))
                return True
        return False


# ---- payload corruption helpers (shared by the communicator) -------------


def corrupt_payload(spec: FaultSpec, obj: Any) -> Any:
    """Apply a truncate/bitflip fault to a buffer-like payload.

    Non-buffer payloads (ints, dicts, control objects) pass through
    unchanged — corruption faults model damage to bulk data on the
    wire, and the simulation cannot meaningfully flip bits of an
    arbitrary Python object.
    """
    if spec.kind == "bitflip":
        return _bitflip(obj, spec.bit)
    if spec.kind == "truncate":
        return _truncate(obj, spec.keep_fraction)
    return obj


def _bitflip(obj: Any, bit: int) -> Any:
    if isinstance(obj, np.ndarray) and obj.size:
        buf = bytearray(np.ascontiguousarray(obj).tobytes())
        pos = bit % (len(buf) * 8)
        buf[pos // 8] ^= 1 << (pos % 8)
        return np.frombuffer(bytes(buf), dtype=obj.dtype).reshape(obj.shape).copy()
    if isinstance(obj, (bytes, bytearray)) and len(obj):
        buf = bytearray(obj)
        pos = bit % (len(buf) * 8)
        buf[pos // 8] ^= 1 << (pos % 8)
        return bytes(buf)
    if isinstance(obj, (list, tuple)) and obj:
        head = _bitflip(obj[0], bit)
        return type(obj)([head, *obj[1:]])
    return obj


def _truncate(obj: Any, keep_fraction: float) -> Any:
    if isinstance(obj, np.ndarray) and obj.size:
        flat = np.ascontiguousarray(obj).ravel()
        k = max(1, int(flat.size * keep_fraction))
        if k >= flat.size:
            k = flat.size - 1 or 1
        return flat[:k].copy()
    if isinstance(obj, (bytes, bytearray)) and len(obj) > 1:
        return bytes(obj[: max(1, int(len(obj) * keep_fraction))])
    if isinstance(obj, (list, tuple)) and obj:
        head = _truncate(obj[0], keep_fraction)
        return type(obj)([head, *obj[1:]])
    return obj
