"""Tests for node topology: :class:`NodeMap`, the zero-copy same-node
path, and the topology-aware intra/inter split in :class:`TrafficStats`."""

import numpy as np
import pytest

from repro.simmpi import (
    FABRIC_HEADER_BYTES,
    NodeMap,
    run_spmd,
)
from repro.trace import TraceCostModel


class TestNodeMap:
    def test_flat_default_every_rank_its_own_node(self):
        nm = NodeMap(4)
        assert nm.ranks_per_node == 1
        assert nm.nnodes == 4
        assert nm.same_node(2, 2)
        assert not nm.same_node(0, 1)

    def test_contiguous_blocks(self):
        nm = NodeMap(8, 4)
        assert nm.nnodes == 2
        assert nm.node_of(3) == 0
        assert [nm.node_of(r) for r in range(4, 8)] == [1, 1, 1, 1]
        assert nm.same_node(4, 7)
        assert not nm.same_node(3, 4)

    def test_ragged_tail_node(self):
        nm = NodeMap(8, 3)
        assert nm.nnodes == 3
        assert [nm.node_of(r) for r in range(5, 8)] == [1, 2, 2]

    def test_ranks_per_node_clamped_to_world_size(self):
        nm = NodeMap(2, 16)
        assert nm.nnodes == 1
        assert nm.node_of(0) == nm.node_of(1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeMap(0)
        with pytest.raises(ValueError):
            NodeMap(4, 0)
        with pytest.raises(ValueError):
            NodeMap(4, 2).node_of(4)


class TestSameNodeTransferPath:
    def test_same_node_recv_shares_the_senders_buffer(self):
        def body(comm):
            if comm.rank == 0:
                arr = np.arange(32.0)
                comm.send(arr, dest=1)
                return arr
            return comm.recv(source=0)

        res = run_spmd(2, body, ranks_per_node=2)
        assert np.shares_memory(res.values[0], res.values[1])

    def test_cross_node_payload_arrives_by_reference(self):
        # A cross-node message is handed over like a same-node one: the
        # receiver gets the sender's very object on either engine (only
        # the byte accounting and the DES price tell the two apart).
        def body(comm):
            if comm.rank == 0:
                arr = np.arange(32.0)
                comm.send(arr, dest=1)
                return arr
            return comm.recv(source=0)

        for engine in ("thread", "des"):
            res = run_spmd(2, body, ranks_per_node=1, engine=engine)
            assert res.values[1] is res.values[0], engine

    def test_same_node_bytes_are_intra_node_not_fabric(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), dest=1)  # 80 payload bytes
            else:
                comm.recv(source=0)

        res = run_spmd(2, body, ranks_per_node=2)
        assert res.stats.total_intra_node_bytes == 80
        assert res.stats.total_inter_node_bytes == 0
        assert res.stats.total_inter_node_messages == 0

    def test_cross_node_bytes_charged_with_fabric_header(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), dest=1)
            else:
                comm.recv(source=0)

        res = run_spmd(2, body, ranks_per_node=1)
        assert res.stats.total_intra_node_bytes == 0
        assert res.stats.total_inter_node_bytes == 80 + FABRIC_HEADER_BYTES
        assert res.stats.total_inter_node_messages == 1
        # The header is a counter-only charge: payload accounting is
        # unchanged from the flat world.
        assert res.stats.phase("default").bytes_by_pair[(0, 1)] == 80

    def test_same_node_bypass_works_under_link_model(self):
        # Same-node messages pay no wire time on the DES clock, however
        # slow the modelled wire: no NIC serialisation, no latency.
        def body(comm):
            if comm.rank == 0:
                comm.send(np.arange(64.0), dest=1)
                return None
            return comm.recv(source=0)

        slow = TraceCostModel(latency_s=1e-3)
        node = run_spmd(2, body, ranks_per_node=2, engine="des", cost_model=slow)
        flat = run_spmd(2, body, engine="des", cost_model=slow)
        np.testing.assert_array_equal(node.values[1], np.arange(64.0))
        assert node.stats.total_inter_node_bytes == 0
        assert node.virtual_time_s < 1e-5
        assert flat.virtual_time_s >= 1e-3


class TestStatsTopologyRoundTrip:
    def test_nonblocking_path_attributes_same_node_consistently(self):
        # isend/irecv between same-node ranks must charge intra-node
        # bytes exactly like the blocking path.
        def blocking(comm):
            if comm.rank == 0:
                comm.send(np.zeros(16), dest=1)
            else:
                comm.recv(source=0)

        def nonblocking(comm):
            if comm.rank == 0:
                comm.isend(np.zeros(16), dest=1).wait()
            else:
                comm.irecv(source=0).wait()

        a = run_spmd(2, blocking, ranks_per_node=2).stats
        b = run_spmd(2, nonblocking, ranks_per_node=2).stats
        assert (
            b.total_intra_node_bytes == a.total_intra_node_bytes == 128
        )
        assert b.total_inter_node_bytes == a.total_inter_node_bytes == 0
