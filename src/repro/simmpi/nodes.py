"""Node topology of a simulated world: which ranks share a machine.

Real clusters are node-hierarchical: R ranks share one node's memory
and NIC, and only traffic *between* nodes touches the fabric.  The
historical simmpi world is flat — every rank its own node — which makes
every cross-rank byte a fabric byte.  :class:`NodeMap` gives the world
a shape (``ranks_per_node``), and everything topology-aware hangs off
it: the traffic split into intra-node vs inter-node bytes, the
same-node path that skips the NIC in DES virtual time, and the
``hierarchical`` all-to-all's node aggregation
(:meth:`~repro.simmpi.comm.Communicator.node_groups`).

Zero-copy is literal here: ranks are threads in one address space and
every payload is handed over by reference, so a same-node receiver gets
the sender's buffer itself (``np.shares_memory`` proves it) and the
transfer charges zero fabric bytes.  The saving is measured, not
asserted: :class:`~repro.simmpi.stats.TrafficStats` books same-node
payload bytes as ``intra_node_bytes``.

``FABRIC_HEADER_BYTES`` models the per-message envelope a real fabric
charges (an InfiniBand/MPI header is ~dozens of bytes of match bits,
sequence numbers and routing).  Payload byte *volume* crossing nodes is
algorithm-invariant — every off-node element crosses exactly once —
but message *count* is not: the hierarchical all-to-all collapses
P·(P−R) inter-node messages to (P/R)·(P/R−1), and the header term is
what makes that collapse visible in measured inter-node bytes.
"""

from __future__ import annotations

__all__ = ["FABRIC_HEADER_BYTES", "NodeMap"]

#: Modelled per-message fabric envelope, charged to inter-node byte
#: counters only (never to ``bytes_by_pair`` — payload accounting is
#: unchanged from every prior PR).
FABRIC_HEADER_BYTES = 64


class NodeMap:
    """Assignment of world ranks to simulated nodes (contiguous blocks).

    ``ranks_per_node=None`` (or 1) is the historical flat world: each
    rank is its own node, so ``same_node(a, b)`` iff ``a == b`` and the
    inter-node byte counters coincide with the pre-existing
    ``offnode_bytes()`` notion.  With ``ranks_per_node=R``, rank r lives
    on node ``r // R``; a world size that R does not divide leaves a
    smaller final node (allowed — real jobs run ragged tails too).
    """

    def __init__(self, nranks: int, ranks_per_node: int | None = None) -> None:
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        rpn = 1 if ranks_per_node is None else int(ranks_per_node)
        if rpn < 1:
            raise ValueError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
        self.nranks = int(nranks)
        self.ranks_per_node = min(rpn, self.nranks)
        self.nnodes = -(-self.nranks // self.ranks_per_node)  # ceil

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")
        return rank // self.ranks_per_node

    def same_node(self, a: int, b: int) -> bool:
        return a // self.ranks_per_node == b // self.ranks_per_node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NodeMap(nranks={self.nranks}, "
            f"ranks_per_node={self.ranks_per_node}, nnodes={self.nnodes})"
        )

