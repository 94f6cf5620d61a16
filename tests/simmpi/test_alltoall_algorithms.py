"""Tests for the world's all-to-all schedule (`repro.simmpi.alltoall`).

The contract under test: the schedule is set once, by
``run_spmd(alltoall_algorithm=)``, and run by ``alltoall_matrix``;
``hierarchical`` is a pure reschedule of the ``pairwise`` reference —
bitwise-identical outputs on every world shape (flat, even nodes,
ragged tail) — the measured inter-node message counts match the
analytic schedule model exactly, and the DES clock prices it.
"""

import numpy as np
import pytest

from repro.simmpi import (
    ALGORITHMS,
    ChaosSchedule,
    FaultPlan,
    RankFailedError,
    TransportPolicy,
    predicted_inter_node_messages,
    run_spmd,
)


def _exchange(nranks, rpn, algorithm, elems=8, **kwargs):
    def body(comm):
        gen = np.random.default_rng(991 + comm.rank)
        buf = gen.standard_normal((nranks, elems)) + 1j * gen.standard_normal(
            (nranks, elems)
        )
        return comm.alltoall_matrix(buf)

    res = run_spmd(
        nranks, body, ranks_per_node=rpn, alltoall_algorithm=algorithm, **kwargs
    )
    return np.stack(res.values), res


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("algorithm", ["hierarchical"])
    @pytest.mark.parametrize("nranks,rpn", [
        (4, None), (4, 2), (8, 4), (8, 2), (8, 3), (5, 2),
    ])
    def test_matches_pairwise_bitwise(self, algorithm, nranks, rpn):
        got, _ = _exchange(nranks, rpn, algorithm)
        ref, _ = _exchange(nranks, rpn, "pairwise")
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("algorithm", ["hierarchical"])
    def test_non_ndarray_payloads(self, algorithm):
        """The list form is the pairwise exchange of arbitrary objects,
        whatever the world's schedule."""

        def body(comm):
            objs = [{"from": comm.rank, "to": d} for d in range(4)]
            return comm.alltoall(objs)

        res = run_spmd(4, body, ranks_per_node=2, alltoall_algorithm=algorithm)
        for rank, got in enumerate(res.values):
            assert got == [{"from": s, "to": rank} for s in range(4)]
        assert res.stats.total_inter_node_messages == (
            predicted_inter_node_messages(4, 2, "pairwise")
        )

    @pytest.mark.parametrize("algorithm", ["hierarchical"])
    def test_single_rank_world(self, algorithm):
        def body(comm):
            return comm.alltoall_matrix(np.arange(3.0)[None, :])

        (out,) = run_spmd(1, body, alltoall_algorithm=algorithm).values
        np.testing.assert_array_equal(out[0], np.arange(3.0))

    def test_wrong_length_rejected(self):
        def body(comm):
            with pytest.raises(ValueError):
                comm.alltoall([1, 2, 3])
            with pytest.raises(ValueError):
                comm.alltoall_matrix(np.zeros((3, 2)))

        run_spmd(2, body, alltoall_algorithm="hierarchical")


class TestAlgorithmResolution:
    def test_registry(self):
        assert ALGORITHMS == ("pairwise", "hierarchical")

    def test_unknown_algorithm_raises(self):
        """Only the world names a schedule: an unknown name (``bruck``
        included) is refused at construction, and no collective takes a
        per-call choice."""
        for engine in ("thread", "des"):
            with pytest.raises(ValueError, match="unknown alltoall algorithm"):
                run_spmd(2, lambda comm: None, alltoall_algorithm="bruck",
                         engine=engine)

        def body(comm):
            with pytest.raises(TypeError):
                comm.alltoall([0, 1], algorithm="pairwise")
            with pytest.raises(TypeError):
                comm.alltoall_matrix(np.zeros((2, 1)), algorithm="pairwise")

        run_spmd(2, body)

    def test_world_default_applies_when_unspecified(self):
        hier_out, hier = _exchange(4, 2, "hierarchical", elems=4)
        pair_out, _ = _exchange(4, 2, "pairwise", elems=4)
        assert np.array_equal(hier_out, pair_out)
        # The world's schedule actually took effect: node-aggregated
        # message count.
        assert hier.stats.total_inter_node_messages == (
            predicted_inter_node_messages(4, 2, "hierarchical")
        )

    def test_invalid_world_default_rejected_at_construction(self):
        with pytest.raises(ValueError):
            run_spmd(2, lambda comm: None, alltoall_algorithm="ring")

    def test_shrunk_communicator_rejects_non_pairwise(self):
        """Survivors have a node map, so the world's schedule composes
        with shrink(): the hierarchical matrix form returns the pairwise
        list form bitwise."""

        def body(comm):
            with comm.phase("doom"):
                pass
            try:
                comm.barrier()
            except RankFailedError:
                pass
            shrunk = comm.shrink()
            gen = np.random.default_rng(17 + comm.rank)
            buf = gen.standard_normal((shrunk.size, 6))
            ref = np.stack(shrunk.alltoall(list(buf)))
            mat = shrunk.alltoall_matrix(buf)
            assert mat.tobytes() == ref.tobytes()
            return ref

        res = run_spmd(
            5,
            body,
            ranks_per_node=2,
            alltoall_algorithm="hierarchical",
            resilient=True,
            faults=FaultPlan().kill(1, phase="doom"),
            timeout=30.0,
        )
        assert dict(res.failures).keys() == {1}
        # Survivors (0, 2, 3, 4) renumber 0..3; row s came from member s.
        for me, rank in enumerate((0, 2, 3, 4)):
            for s, src in enumerate((0, 2, 3, 4)):
                gen = np.random.default_rng(17 + src)
                sent = gen.standard_normal((4, 6))
                assert res.values[rank][s].tobytes() == sent[me].tobytes()


class TestMessageCountModel:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("nranks,rpn", [(8, 4), (8, 2), (16, 4), (8, 3)])
    def test_measured_matches_predicted(self, algorithm, nranks, rpn):
        _, res = _exchange(nranks, rpn, algorithm)
        assert res.stats.total_inter_node_messages == (
            predicted_inter_node_messages(nranks, rpn, algorithm)
        )

    def test_hierarchical_collapses_p_squared_to_node_pairs(self):
        # P=16 as 4 nodes x 4: 16*12 pairwise inter-node messages vs
        # 4*3 node-pair messages — the (P/R)^2 collapse.
        assert predicted_inter_node_messages(16, 4, "pairwise") == 192
        assert predicted_inter_node_messages(16, 4, "hierarchical") == 12

    @pytest.mark.parametrize(
        "rpn,pair_msgs,hier_msgs", [(4, 192, 12), (2, 224, 56)], ids=["4x4", "8x2"]
    )
    def test_hierarchical_wins_measured(self, rpn, pair_msgs, hier_msgs):
        """P=16 as 4x4 and as 8x2: measured messages collapse to node
        pairs and fewer header bytes cross the fabric.  Whether that
        saves time is the DES clock's call (:class:`TestOneClock`)."""
        pair_out, pair = _exchange(16, rpn, "pairwise", elems=1024)
        hier_out, hier = _exchange(16, rpn, "hierarchical", elems=1024)
        assert np.array_equal(hier_out, pair_out)
        assert pair.stats.total_inter_node_messages == pair_msgs
        assert hier.stats.total_inter_node_messages == hier_msgs
        assert hier.stats.total_inter_node_bytes < pair.stats.total_inter_node_bytes

    def test_payload_volume_is_algorithm_invariant(self):
        # Every off-node element crosses the fabric exactly once under
        # pairwise and hierarchical; headers are the only byte delta.
        _, pair = _exchange(8, 4, "pairwise", elems=64)
        _, hier = _exchange(8, 4, "hierarchical", elems=64)
        pair, hier = pair.stats, hier.stats
        pair_payload = pair.total_inter_node_bytes - 64 * pair.total_inter_node_messages
        hier_payload = hier.total_inter_node_bytes - 64 * hier.total_inter_node_messages
        assert pair_payload == hier_payload
        assert hier.total_inter_node_bytes < pair.total_inter_node_bytes


class TestOneClock:
    """The DES clock decides when the hierarchical schedule pays."""

    @staticmethod
    def _virtual_us(algorithm, bytes_per_pair):
        from repro.cluster.fabrics import cluster
        from repro.trace.spans import TraceCostModel

        spec = cluster("endeavor")

        def body(comm):
            comm.alltoall_matrix(
                np.zeros((16, bytes_per_pair // 16), dtype=np.complex128)
            )

        res = run_spmd(
            16, body, ranks_per_node=4, alltoall_algorithm=algorithm,
            engine="des",
            cost_model=TraceCostModel(node=spec.node, fabric=spec.fabric),
        )
        return res.virtual_time_s * 1e6

    def test_hierarchical_wins_only_header_bound(self):
        """P=16 as 4x4 on Endeavor: 12 combined messages beat 192 small
        ones at 16 B per rank pair, but the leaders' serialised gather,
        exchange and scatter lose once the payload binds (1 KiB)."""
        pair16 = self._virtual_us("pairwise", 16)
        hier16 = self._virtual_us("hierarchical", 16)
        assert hier16 < pair16
        assert (hier16, pair16) == pytest.approx((7.70, 9.61), abs=0.01)
        pair1k = self._virtual_us("pairwise", 1024)
        hier1k = self._virtual_us("hierarchical", 1024)
        assert hier1k > pair1k
        assert (hier1k, pair1k) == pytest.approx((45.82, 13.93), abs=0.01)


class TestComposition:
    @pytest.mark.parametrize("algorithm", ["hierarchical"])
    def test_survives_bitflips_under_reliable_transport(self, algorithm):
        policy = TransportPolicy(retry_timeout=0.05, max_retries=8)
        chaotic, _ = _exchange(
            4, 2, algorithm, elems=16, transport=policy,
            faults=ChaosSchedule(seed=3, p_bitflip=0.2), timeout=30,
        )
        clean, _ = _exchange(4, 2, algorithm, elems=16)
        assert np.array_equal(chaotic, clean)

    @pytest.mark.parametrize("algorithm", ["hierarchical"])
    def test_traced_run_is_bit_transparent_and_recorded(self, algorithm):
        from repro.trace import TraceRecorder

        rec = TraceRecorder()
        traced, _ = _exchange(4, 2, algorithm, trace=rec)
        plain, _ = _exchange(4, 2, algorithm)
        assert np.array_equal(traced, plain)
        assert rec.nevents > 0
        tl = rec.timeline()
        assert any(s.kind == "collective" for s in tl.spans)

    def test_alltoall_rounds_counted_once_per_exchange(self):
        def body(comm):
            comm.alltoall_matrix(np.zeros((4, 2)))
            comm.alltoall([np.zeros(2) for _ in range(4)])

        res = run_spmd(4, body, ranks_per_node=2, alltoall_algorithm="hierarchical")
        assert res.stats.phase("default").alltoall_rounds == 2
