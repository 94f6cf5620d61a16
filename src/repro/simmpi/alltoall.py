"""Pluggable all-to-all exchange schedules.

The personalised all-to-all is the dominant communication of both
distributed FFT backends (the paper's whole pitch is needing ONE of
them instead of three), so *how* those P² blocks move matters.  Three
schedules hide behind ``Communicator.alltoall(..., algorithm=)``:

``pairwise``
    The historical direct exchange (``Communicator.alltoall``): every
    rank sends P−1 messages.  Bitwise reference for the others.

``bruck``
    The log-P store-and-forward schedule (Bruck et al., 1997): blocks
    rotate so that round k forwards every block whose remaining
    distance has bit k set, combined into ONE message per rank per
    round.  ceil(log2 P) messages per rank instead of P−1 — the
    classic small-message / high-latency regime.

``hierarchical``
    Node-aggregated exchange: within each node, members hand their
    off-node blocks to the node leader (intra-node, zero fabric);
    leaders exchange ONE combined message per ordered node pair;
    leaders scatter the arrivals back to their members.  Same-node
    blocks go directly, never touching a leader.  Inter-node message
    count collapses from P·(P−R) to (P/R)·(P/R−1) for R ranks/node —
    the AccFFT/MVAPICH-style topology-aware collective.

Every schedule moves payloads by reference (store-and-forward included),
so all three return *the same objects* the sender passed in — bitwise
identity with ``pairwise`` is structural, and the conformance suite pins
it.  Byte accounting is per physical hop: ``bruck`` pays for forwarding,
``hierarchical`` pays gather+exchange+scatter — the point is what
fraction of those hops crosses nodes, which is what
``TrafficStats.inter_node_bytes`` measures.

Tag bands (disjoint from every other collective):

- bruck round k:          ``-940 - k``
- hierarchical gather:    ``-920`` (member -> leader)
- hierarchical exchange:  ``-921`` (leader -> leader)
- hierarchical scatter:   ``-922`` (leader -> member)
- hierarchical same-node: ``-923`` (direct member -> member)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .comm import Communicator

__all__ = [
    "ALGORITHMS",
    "resolve_algorithm",
    "exchange",
    "hierarchical_matrix",
    "predicted_inter_node_messages",
]

ALGORITHMS = ("pairwise", "bruck", "hierarchical")

BRUCK_TAG_BASE = -940
HIER_GATHER_TAG = -920
HIER_EXCHANGE_TAG = -921
HIER_SCATTER_TAG = -922
HIER_LOCAL_TAG = -923


def resolve_algorithm(algorithm: str | None, world: Any = None) -> str:
    """Resolve an explicit choice against the world default.

    Explicit wins; ``None`` falls back to ``world.alltoall_algorithm``
    (itself defaulting to ``"pairwise"``).  Unknown names raise.
    """
    algo = algorithm
    if algo is None:
        algo = getattr(world, "alltoall_algorithm", None) or "pairwise"
    if algo not in ALGORITHMS:
        raise ValueError(
            f"unknown alltoall algorithm {algo!r}; expected one of {ALGORITHMS}"
        )
    return algo


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
    if algorithm == "bruck":
        count = 0
        k = 1
        while k < nranks:
            count += sum(
                1 for r in range(nranks) if not nm.same_node(r, (r + k) % nranks)
            )
            k <<= 1
        return count
    # hierarchical: one combined message per ordered pair of distinct nodes
    return nm.nnodes * (nm.nnodes - 1)


def exchange(
    comm: "Communicator",
    objs: Sequence[Any],
    algorithm: str,
    timeout: float | None = None,
) -> list[Any]:
    """Run one non-pairwise all-to-all schedule on *comm* (dispatcher).

    Called inside :meth:`Communicator.alltoall`'s epoch bracket, which
    keeps the pairwise accounting contract (one round charged, one
    ``(rank, rank)`` self-delivery message, one traced collective).
    """
    if algorithm == "bruck":
        return _bruck(comm, objs, timeout)
    if algorithm == "hierarchical":
        out: list[Any] = [None] * comm.size
        out[comm.rank] = objs[comm.rank]
        return _hierarchical(comm, objs, out, _ListBlocks, timeout)
    raise ValueError(f"exchange() does not dispatch {algorithm!r}")


def hierarchical_matrix(
    comm: "Communicator",
    buf: np.ndarray,
    timeout: float | None = None,
) -> np.ndarray:
    """Hierarchical all-to-all over one ``(P, ...)`` array (row d → rank d).

    The array-native form of ``exchange(..., "hierarchical")``: the same
    schedule, tags, message counts and byte totals (a concatenated row
    batch carries exactly the bytes of its blocks, and
    ``_payload_bytes`` is a pure sum), but every hop moves a single
    contiguous ndarray instead of a Python list of P block objects.
    Per-rank object traffic drops from O(P) to O(nodes + ranks/node),
    which is what makes 4096-rank exchanges tractable.  Returns a
    ``(P, ...)`` array whose row s is the block from rank s — bitwise
    ``np.stack`` of the list form.
    """
    out = np.empty_like(buf)
    out[comm.rank] = buf[comm.rank]
    return _hierarchical(comm, buf, out, _ArrayBlocks, timeout)


def _bruck(
    comm: "Communicator", objs: Sequence[Any], timeout: float | None
) -> list[Any]:
    """Bruck's log-P store-and-forward schedule (any P, not just 2^k).

    Phase 1 rotates: ``tmp[i]`` holds the block whose destination is
    ``i`` ranks ahead.  Phase 2, round k: every block whose remaining
    distance has bit k set rides ONE combined message k ranks forward.
    Phase 3 inverse-rotates received blocks into source order.
    """
    p, rank = comm.size, comm.rank
    tmp = [objs[(rank + i) % p] for i in range(p)]
    k, rnd = 1, 0
    while k < p:
        idxs = [i for i in range(1, p) if i & k]
        tag = BRUCK_TAG_BASE - rnd
        comm.send([tmp[i] for i in idxs], (rank + k) % p, tag=tag)
        got = comm._collective_recv(
            (rank - k) % p, tag, timeout, "alltoall(bruck)"
        )
        for i, item in zip(idxs, got):
            tmp[i] = item
        k <<= 1
        rnd += 1
    out: list[Any] = [None] * p
    for i in range(p):
        out[(rank - i) % p] = tmp[i]
    return out


class _ListBlocks:
    """Block batches of the list form: Python lists of block objects."""

    @staticmethod
    def take(blocks: Sequence[Any], idxs: list[int]) -> list:
        return [blocks[i] for i in idxs]

    @staticmethod
    def concat(parts: list) -> list:
        return [blk for part in parts for blk in part]

    @staticmethod
    def put(out: list, idxs: list[int], blocks: list) -> None:
        for i, blk in zip(idxs, blocks):
            out[i] = blk


class _ArrayBlocks:
    """Block batches of the matrix form: row batches of one ndarray.

    A batch whose indices are one ascending run is a zero-copy slice
    (base communicators have contiguous node groups); sub-communicator
    groups can be scattered in local rank space and use fancy indexing.
    """

    @staticmethod
    def _rows(idxs: list[int]) -> slice | np.ndarray:
        lo = idxs[0]
        if idxs == list(range(lo, lo + len(idxs))):
            return slice(lo, lo + len(idxs))
        return np.asarray(idxs)

    @staticmethod
    def take(buf: np.ndarray, idxs: list[int]) -> np.ndarray:
        return buf[_ArrayBlocks._rows(idxs)]

    @staticmethod
    def concat(parts: list) -> np.ndarray:
        return np.concatenate(parts, axis=0)

    @staticmethod
    def put(out: np.ndarray, idxs: list[int], blocks: np.ndarray) -> None:
        out[_ArrayBlocks._rows(idxs)] = blocks


def _hierarchical(
    comm: "Communicator",
    send: Any,
    out: Any,
    ops: type,
    timeout: float | None,
) -> Any:
    """Node-aggregated gather -> leader exchange -> scatter.

    *send* and *out* hold one block per rank — a list, or the rows of an
    ndarray — and *ops* (:class:`_ListBlocks` or :class:`_ArrayBlocks`)
    takes, concatenates and puts batches of them; every message's
    ``(src, dst, tag, bytes)`` and order is the same for both forms.
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
    groups = comm.node_groups()
    my_group = next(g for g in groups if rank in g)
    leader = my_group[0]
    nlocal = len(my_group)

    # 1. same-node blocks travel directly (zero-copy pool, no leader hop).
    for dst in my_group:
        if dst != rank:
            comm.send(send[dst], dst, tag=HIER_LOCAL_TAG)

    remote = [g for g in groups if g is not my_group]
    if remote:
        # contrib[pos] = my blocks for remote[pos], dest order.
        contrib = [ops.take(send, g) for g in remote]
        if rank == leader:
            per_member = {rank: contrib}
            for m in my_group[1:]:
                per_member[m] = comm._collective_recv(
                    m, HIER_GATHER_TAG, timeout, "alltoall(hierarchical gather)"
                )
            for pos, g in enumerate(remote):
                flat = ops.concat([per_member[src][pos] for src in my_group])
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
                blocks = ops.concat([inb[di::nlocal] for inb in inbound])
                if m == rank:
                    mine = blocks
                else:
                    comm.send(blocks, m, tag=HIER_SCATTER_TAG)
        else:
            comm.send(contrib, leader, tag=HIER_GATHER_TAG)
            mine = comm._collective_recv(
                leader, HIER_SCATTER_TAG, timeout, "alltoall(hierarchical scatter)"
            )
        ops.put(out, [src for g in remote for src in g], mine)

    # 5. drain the direct same-node blocks (sent in step 1 by everyone).
    for src in my_group:
        if src != rank:
            out[src] = comm._collective_recv(
                src, HIER_LOCAL_TAG, timeout, "alltoall(hierarchical local)"
            )
    return out
