"""Traffic accounting for the simulated message-passing runtime.

The paper's central claim is about *communication structure*: SOI does
ONE all-to-all of ``N' = (1+beta) N`` points where the standard
algorithm does THREE of ``N`` points, plus a negligible halo
("typically less than 0.01% of M", Fig. 4).  :class:`TrafficStats`
records, per labelled phase, the bytes and message counts between every
rank pair and the number of collective rounds, so benchmarks and tests
can assert those claims byte-for-byte and feed the measured volumes
into the interconnect cost models of :mod:`repro.cluster`.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

__all__ = ["PhaseTraffic", "TrafficStats"]


def _pair_key(src: int, dst: int) -> str:
    """JSON-safe rendering of a rank pair: ``(0, 1)`` -> ``"0->1"``."""
    return f"{src}->{dst}"


@dataclass
class PhaseTraffic:
    """Aggregated traffic of one labelled phase."""

    bytes_by_pair: dict[tuple[int, int], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    messages_by_pair: dict[tuple[int, int], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    alltoall_rounds: int = 0
    # Topology split (PR 8): every recorded message lands in exactly one
    # of these two byte pools.  ``intra_node_bytes`` counts payload bytes
    # moved inside a node (shared memory: self-sends plus same-node
    # peers); ``inter_node_bytes`` counts payload bytes that crossed the
    # fabric PLUS a modelled per-message header
    # (:data:`~repro.simmpi.nodes.FABRIC_HEADER_BYTES`), so message-count
    # reductions show up in bytes.  ``bytes_by_pair`` stays pure payload
    # — headers are never charged there.  On a flat world (the default
    # one-rank-per-node map), ``inter_node_bytes`` covers exactly the
    # ``offnode_bytes()`` messages.
    intra_node_bytes: int = 0
    inter_node_bytes: int = 0
    inter_node_messages: int = 0
    # Reliability counters (populated only when a TransportPolicy is on):
    retransmits: int = 0
    retransmit_bytes: int = 0
    duplicates_discarded: int = 0
    corrupt_detected: int = 0
    acks: int = 0
    control_bytes: int = 0
    # Resilience counters (populated only by the failure-detection and
    # ABFT recovery layers): bytes re-sent or reconstructed after a rank
    # death, flops spent recomputing the dead rank's work, and how many
    # distinct rank failures this phase detected.
    recovery_bytes: int = 0
    recovery_flops: int = 0
    detected_failures: int = 0
    # Nonblocking-request counters (populated only by isend/irecv use):
    # deepest outstanding-request queue any rank reached in this phase,
    # and how many post/claim transitions LANDED at each depth.  Both are
    # program-order quantities (see Request), so they are deterministic
    # under schedule fuzzing.
    max_outstanding: int = 0
    time_at_depth: dict[int, int] = field(default_factory=lambda: defaultdict(int))

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_pair.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_pair.values())

    def offnode_bytes(self) -> int:
        """Bytes between distinct ranks (self-sends model local copies)."""
        return sum(b for (s, d), b in self.bytes_by_pair.items() if s != d)

    def as_dict(self) -> dict:
        """JSON-safe export: tuple pair keys become ``"src->dst"`` strings.

        The machine-readable companion of :meth:`TrafficStats.summary`,
        shared with the trace subsystem's aggregate format.
        """
        return {
            "bytes_by_pair": {
                _pair_key(s, d): int(b) for (s, d), b in sorted(self.bytes_by_pair.items())
            },
            "messages_by_pair": {
                _pair_key(s, d): int(m)
                for (s, d), m in sorted(self.messages_by_pair.items())
            },
            "alltoall_rounds": self.alltoall_rounds,
            "intra_node_bytes": self.intra_node_bytes,
            "inter_node_bytes": self.inter_node_bytes,
            "inter_node_messages": self.inter_node_messages,
            "retransmits": self.retransmits,
            "retransmit_bytes": self.retransmit_bytes,
            "duplicates_discarded": self.duplicates_discarded,
            "corrupt_detected": self.corrupt_detected,
            "acks": self.acks,
            "control_bytes": self.control_bytes,
            "recovery_bytes": self.recovery_bytes,
            "recovery_flops": self.recovery_flops,
            "detected_failures": self.detected_failures,
            "max_outstanding": self.max_outstanding,
            "time_at_depth": {
                str(depth): int(count)
                for depth, count in sorted(self.time_at_depth.items())
            },
        }


class TrafficStats:
    """Thread-safe per-phase traffic recorder shared by all ranks.

    Phases are free-form labels ("convolution-halo", "alltoall", ...)
    set by the algorithms via :meth:`Communicator.phase`.  The default
    phase is ``"default"``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._phases: dict[str, PhaseTraffic] = defaultdict(PhaseTraffic)
        self._req_depth: dict[tuple[str, int], int] = {}  # (phase, rank) -> depth
        # Topology attribution (see configure_topology).  Until a world
        # configures us, every cross-rank message counts as inter-node
        # with no header — i.e. inter_node_bytes == offnode_bytes().
        self._node_map: Any | None = None
        self._header_bytes = 0

    def configure_topology(self, node_map: Any, header_bytes: int = 0) -> None:
        """Attach the world's :class:`~repro.simmpi.nodes.NodeMap`.

        Called once by :class:`~repro.simmpi.transport.World` before any
        traffic flows; *header_bytes* is the modelled per-message fabric
        envelope charged to ``inter_node_bytes`` (only).
        """
        with self._lock:
            self._node_map = node_map
            self._header_bytes = int(header_bytes)

    def record_message(self, phase: str, src: int, dst: int, nbytes: int) -> None:
        with self._lock:
            ph = self._phases[phase]
            ph.bytes_by_pair[(src, dst)] += int(nbytes)
            ph.messages_by_pair[(src, dst)] += 1
            same_node = (
                src == dst
                if self._node_map is None
                else self._node_map.same_node(src, dst)
            )
            if same_node:
                ph.intra_node_bytes += int(nbytes)
            else:
                ph.inter_node_bytes += int(nbytes) + self._header_bytes
                ph.inter_node_messages += 1

    def record_alltoall(self, phase: str) -> None:
        """Count one all-to-all round (called once per collective, rank 0)."""
        with self._lock:
            self._phases[phase].alltoall_rounds += 1

    # ---- reliability events (the cost of recovery, not just the fact) ----

    def record_retransmit(self, phase: str, src: int, dst: int, nbytes: int) -> None:
        """One retransmission of *nbytes* on the src->dst flow.

        The retransmitted payload is also recorded as a regular message
        by the wire layer; these counters isolate the *extra* traffic so
        tests can assert both that recovery happened and what it cost.
        """
        with self._lock:
            ph = self._phases[phase]
            ph.retransmits += 1
            ph.retransmit_bytes += int(nbytes)

    def record_duplicate(self, phase: str) -> None:
        with self._lock:
            self._phases[phase].duplicates_discarded += 1

    def record_corrupt(self, phase: str) -> None:
        with self._lock:
            self._phases[phase].corrupt_detected += 1

    def record_ack(self, phase: str, nbytes: int) -> None:
        with self._lock:
            ph = self._phases[phase]
            ph.acks += 1
            ph.control_bytes += int(nbytes)

    # ---- resilience events (the cost of surviving a rank death) ----------

    def record_recovery(self, phase: str, nbytes: int = 0, flops: int = 0) -> None:
        """ABFT recovery work: bytes re-sent/reconstructed, flops recomputed.

        Recovery *messages* also flow through the regular wire accounting
        (they cost real bandwidth); these counters isolate the extra
        traffic and compute attributable to surviving a failure, so
        benchmarks can report recovery overhead separately.
        """
        with self._lock:
            ph = self._phases[phase]
            ph.recovery_bytes += int(nbytes)
            ph.recovery_flops += int(flops)

    def record_failure_detected(self, phase: str) -> None:
        """One rank failure detected (attributed to the detecting phase)."""
        with self._lock:
            self._phases[phase].detected_failures += 1

    # ---- nonblocking-request depth (outstanding isend/irecv handles) -----

    def record_request_post(self, phase: str, rank: int) -> None:
        """A rank posted a request: depth += 1, histogram the new depth."""
        with self._lock:
            depth = self._req_depth.get((phase, rank), 0) + 1
            self._req_depth[(phase, rank)] = depth
            ph = self._phases[phase]
            if depth > ph.max_outstanding:
                ph.max_outstanding = depth
            ph.time_at_depth[depth] += 1

    def record_request_complete(self, phase: str, rank: int) -> None:
        """A rank claimed a completion: depth -= 1 (floored at zero)."""
        with self._lock:
            depth = max(self._req_depth.get((phase, rank), 0) - 1, 0)
            self._req_depth[(phase, rank)] = depth
            self._phases[phase].time_at_depth[depth] += 1

    # ---- queries ---------------------------------------------------------

    def phase(self, name: str) -> PhaseTraffic:
        with self._lock:
            return self._phases[name]

    def phases(self) -> list[str]:
        with self._lock:
            return sorted(self._phases)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(p.total_bytes for p in self._phases.values())

    @property
    def total_offnode_bytes(self) -> int:
        with self._lock:
            return sum(p.offnode_bytes() for p in self._phases.values())

    @property
    def total_intra_node_bytes(self) -> int:
        with self._lock:
            return sum(p.intra_node_bytes for p in self._phases.values())

    @property
    def total_inter_node_bytes(self) -> int:
        with self._lock:
            return sum(p.inter_node_bytes for p in self._phases.values())

    @property
    def total_inter_node_messages(self) -> int:
        with self._lock:
            return sum(p.inter_node_messages for p in self._phases.values())

    @property
    def alltoall_rounds(self) -> int:
        with self._lock:
            return sum(p.alltoall_rounds for p in self._phases.values())

    @property
    def total_retransmits(self) -> int:
        with self._lock:
            return sum(p.retransmits for p in self._phases.values())

    @property
    def total_retransmit_bytes(self) -> int:
        with self._lock:
            return sum(p.retransmit_bytes for p in self._phases.values())

    @property
    def total_corrupt_detected(self) -> int:
        with self._lock:
            return sum(p.corrupt_detected for p in self._phases.values())

    @property
    def total_duplicates_discarded(self) -> int:
        with self._lock:
            return sum(p.duplicates_discarded for p in self._phases.values())

    @property
    def total_recovery_bytes(self) -> int:
        with self._lock:
            return sum(p.recovery_bytes for p in self._phases.values())

    @property
    def total_recovery_flops(self) -> int:
        with self._lock:
            return sum(p.recovery_flops for p in self._phases.values())

    @property
    def total_detected_failures(self) -> int:
        with self._lock:
            return sum(p.detected_failures for p in self._phases.values())

    def as_dict(self) -> dict:
        """JSON-safe export of every phase (see :meth:`PhaseTraffic.as_dict`).

        One canonical machine-readable format for traffic statistics,
        shared by the ``--json`` CLI output and the trace exports.
        """
        with self._lock:
            return {
                "phases": {
                    name: self._phases[name].as_dict() for name in sorted(self._phases)
                }
            }

    def summary(self) -> str:
        """Multi-line human-readable report (used by benchmark output)."""
        lines = ["traffic summary:"]
        with self._lock:
            for name in sorted(self._phases):
                ph = self._phases[name]
                line = (
                    f"  {name}: {ph.offnode_bytes():,} off-node bytes in "
                    f"{ph.total_messages} messages, "
                    f"{ph.alltoall_rounds} all-to-all rounds"
                )
                if ph.retransmits or ph.corrupt_detected or ph.duplicates_discarded:
                    line += (
                        f" [{ph.retransmits} retransmits "
                        f"({ph.retransmit_bytes:,} B), "
                        f"{ph.corrupt_detected} corrupt, "
                        f"{ph.duplicates_discarded} dup-discarded]"
                    )
                if ph.detected_failures or ph.recovery_bytes or ph.recovery_flops:
                    line += (
                        f" [{ph.detected_failures} failures detected, "
                        f"recovery {ph.recovery_bytes:,} B / "
                        f"{ph.recovery_flops:,} flops]"
                    )
                lines.append(line)
        return "\n".join(lines)
