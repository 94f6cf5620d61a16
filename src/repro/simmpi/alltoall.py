"""The world's all-to-all exchange schedule.

The personalised all-to-all is the dominant communication of both
distributed FFT backends (the paper's whole pitch is needing ONE of
them instead of three), so *how* those P² blocks move matters.  The
schedule is a property of the world, set once by
``run_spmd(alltoall_algorithm=)`` and read by
``Communicator.alltoall_matrix``:

``pairwise``
    The direct exchange (``Communicator.alltoall``): every rank sends
    P−1 messages.  Bitwise reference for the other.

``hierarchical``
    Node-aggregated exchange: within each node, members hand their
    off-node blocks to the node leader (intra-node, zero fabric);
    leaders exchange ONE combined message per ordered node pair;
    leaders scatter the arrivals back to their members.  Same-node
    blocks go directly, never touching a leader.  Inter-node message
    count collapses from P·(P−R) to (P/R)·(P/R−1) for R ranks/node —
    the AccFFT/MVAPICH-style topology-aware collective.  On the DES
    clock it wins only header-bound exchanges (EXPERIMENTS.md
    "One schedule per world").

Rows move as slices of the caller's array, so the hierarchical result
is bitwise ``np.stack`` of the pairwise one, and the conformance suite
pins it.  Byte accounting is per physical hop: ``hierarchical`` pays
gather+exchange+scatter — the point is what fraction of those hops
crosses nodes, which is what ``TrafficStats.inter_node_bytes``
measures.

Tag bands (disjoint from every other collective):

- hierarchical gather:    ``-920`` (member -> leader)
- hierarchical exchange:  ``-921`` (leader -> leader)
- hierarchical scatter:   ``-922`` (leader -> member)
- hierarchical same-node: ``-923`` (direct member -> member)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .comm import Communicator

__all__ = ["ALGORITHMS", "hierarchical_matrix", "predicted_inter_node_messages"]

ALGORITHMS = ("pairwise", "hierarchical")

HIER_GATHER_TAG = -920
HIER_EXCHANGE_TAG = -921
HIER_SCATTER_TAG = -922
HIER_LOCAL_TAG = -923


def predicted_inter_node_messages(
    nranks: int, ranks_per_node: int | None, algorithm: str
) -> int:
    """Analytic inter-node message count of one clean all-to-all.

    Exactly what ``TrafficStats.inter_node_messages`` measures for a
    fault-free, transport-free run — the conformance suite compares the
    two.  Handles ragged tails (a final node smaller than R) because it
    walks the same :class:`~repro.simmpi.nodes.NodeMap` arithmetic the
    runtime uses.
    """
    from .nodes import NodeMap

    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown alltoall algorithm {algorithm!r}")
    nm = NodeMap(nranks, ranks_per_node)
    if algorithm == "pairwise":
        return sum(
            1
            for s in range(nranks)
            for d in range(nranks)
            if s != d and not nm.same_node(s, d)
        )
    # hierarchical: one combined message per ordered pair of distinct nodes
    return nm.nnodes * (nm.nnodes - 1)


def _rows(idxs: list[int]) -> slice | np.ndarray:
    """Row selector of a block batch: a zero-copy slice when the indices
    are one ascending run (base communicators have contiguous node
    groups), fancy indexing when a sub-communicator's group is scattered
    in local rank space."""
    lo = idxs[0]
    if idxs == list(range(lo, lo + len(idxs))):
        return slice(lo, lo + len(idxs))
    return np.asarray(idxs)


def hierarchical_matrix(
    comm: "Communicator",
    buf: np.ndarray,
    timeout: float | None = None,
) -> np.ndarray:
    """Node-aggregated gather -> leader exchange -> scatter of one
    ``(P, ...)`` array (row d → rank d).

    Returns a ``(P, ...)`` array whose row s is the block from rank s —
    bitwise the pairwise result.  Every hop moves one contiguous
    ndarray of rows, so per-rank object traffic is O(nodes +
    ranks/node), which is what makes 4096-rank exchanges tractable.
    Structure comes from ``comm.node_groups()`` (identical on every
    rank, so no coordination traffic).  All sends are nonblocking
    channel appends; receives follow a fixed global order, so the
    schedule is deadlock-free and deterministic:

    1. every rank sends its same-node blocks directly (tag −923);
    2. non-leaders send their off-node blocks to the node leader,
       grouped by destination node (tag −920, intra-node);
    3. each leader sends ONE flattened batch per remote node —
       ``block(src → dst) for src in my node for dst in remote node``
       (tag −921, the only inter-node hop);
    4. leaders unpack arrivals and scatter each member's batch back
       (tag −922, intra-node);
    5. everyone drains the direct same-node blocks.
    """
    rank = comm.rank
    out = np.empty_like(buf)
    out[rank] = buf[rank]
    groups = comm.node_groups()
    my_group = next(g for g in groups if rank in g)
    leader = my_group[0]
    nlocal = len(my_group)

    # 1. same-node blocks travel directly (zero-copy pool, no leader hop).
    for dst in my_group:
        if dst != rank:
            comm.send(buf[dst], dst, tag=HIER_LOCAL_TAG)

    remote = [g for g in groups if g is not my_group]
    if remote:
        # contrib[pos] = my blocks for remote[pos], dest order.
        contrib = [buf[_rows(g)] for g in remote]
        if rank == leader:
            per_member = {rank: contrib}
            for m in my_group[1:]:
                per_member[m] = comm._collective_recv(
                    m, HIER_GATHER_TAG, timeout, "alltoall(hierarchical gather)"
                )
            for pos, g in enumerate(remote):
                flat = np.concatenate(
                    [per_member[src][pos] for src in my_group], axis=0
                )
                comm.send(flat, g[0], tag=HIER_EXCHANGE_TAG)
            inbound = [
                comm._collective_recv(
                    g[0], HIER_EXCHANGE_TAG, timeout, "alltoall(hierarchical exchange)"
                )
                for g in remote
            ]
            # inbound[pos][si * nlocal + di] = block(remote[pos][si] ->
            # my_group[di]); member di's blocks are the stride-nlocal slice.
            for di, m in enumerate(my_group):
                blocks = np.concatenate([inb[di::nlocal] for inb in inbound], axis=0)
                if m == rank:
                    mine = blocks
                else:
                    comm.send(blocks, m, tag=HIER_SCATTER_TAG)
        else:
            comm.send(contrib, leader, tag=HIER_GATHER_TAG)
            mine = comm._collective_recv(
                leader, HIER_SCATTER_TAG, timeout, "alltoall(hierarchical scatter)"
            )
        out[_rows([src for g in remote for src in g])] = mine

    # 5. drain the direct same-node blocks (sent in step 1 by everyone).
    for src in my_group:
        if src != rank:
            out[src] = comm._collective_recv(
                src, HIER_LOCAL_TAG, timeout, "alltoall(hierarchical local)"
            )
    return out
