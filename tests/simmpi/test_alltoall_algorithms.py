"""Tests for the pluggable all-to-all schedules (`repro.simmpi.alltoall`).

The contract under test: ``bruck`` and ``hierarchical`` are pure
reschedules of the ``pairwise`` reference — bitwise-identical outputs
on every world shape (flat, even nodes, ragged tail) — and the measured
inter-node message counts match the analytic schedule model exactly.
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
    resolve_algorithm,
    run_spmd,
)


def _exchange(nranks, rpn, algorithm, elems=8, **kwargs):
    def body(comm):
        gen = np.random.default_rng(991 + comm.rank)
        objs = [
            gen.standard_normal(elems) + 1j * gen.standard_normal(elems)
            for _ in range(nranks)
        ]
        return np.stack(comm.alltoall(objs, algorithm=algorithm))

    res = run_spmd(nranks, body, ranks_per_node=rpn, **kwargs)
    return np.stack(res.values), res.stats


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("algorithm", ["bruck", "hierarchical"])
    @pytest.mark.parametrize("nranks,rpn", [
        (4, None), (4, 2), (8, 4), (8, 2), (8, 3), (5, 2),
    ])
    def test_matches_pairwise_bitwise(self, algorithm, nranks, rpn):
        got, _ = _exchange(nranks, rpn, algorithm)
        ref, _ = _exchange(nranks, rpn, "pairwise")
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("algorithm", ["bruck", "hierarchical"])
    def test_non_ndarray_payloads(self, algorithm):
        def body(comm, algorithm=algorithm):
            objs = [{"from": comm.rank, "to": d} for d in range(4)]
            return comm.alltoall(objs, algorithm=algorithm)

        res = run_spmd(4, body, ranks_per_node=2)
        for rank, got in enumerate(res.values):
            assert got == [{"from": s, "to": rank} for s in range(4)]

    @pytest.mark.parametrize("algorithm", ["bruck", "hierarchical"])
    def test_single_rank_world(self, algorithm):
        def body(comm, algorithm=algorithm):
            return comm.alltoall([np.arange(3.0)], algorithm=algorithm)

        (out,) = run_spmd(1, body).values
        np.testing.assert_array_equal(out[0], np.arange(3.0))

    def test_wrong_length_rejected(self):
        def body(comm):
            with pytest.raises(ValueError):
                comm.alltoall([1, 2, 3], algorithm="bruck")

        run_spmd(2, body)


class TestAlgorithmResolution:
    def test_registry(self):
        assert ALGORITHMS == ("pairwise", "bruck", "hierarchical")

    def test_explicit_wins_over_default(self):
        assert resolve_algorithm("bruck") == "bruck"
        assert resolve_algorithm(None) == "pairwise"

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError):
            resolve_algorithm("ring")

        def body(comm):
            with pytest.raises(ValueError):
                comm.alltoall([0, 1], algorithm="ring")

        run_spmd(2, body)

    def test_world_default_applies_when_unspecified(self):
        def body(comm):
            gen = np.random.default_rng(5 + comm.rank)
            objs = [gen.standard_normal(4) for _ in range(4)]
            return np.stack(comm.alltoall(objs))  # no algorithm=

        hier = run_spmd(
            4, body, ranks_per_node=2, alltoall_algorithm="hierarchical"
        )
        pair = run_spmd(4, body, ranks_per_node=2)
        assert np.array_equal(np.stack(hier.values), np.stack(pair.values))
        # The default actually took effect: node-aggregated message count.
        assert hier.stats.total_inter_node_messages == (
            predicted_inter_node_messages(4, 2, "hierarchical")
        )

    def test_invalid_world_default_rejected_at_construction(self):
        with pytest.raises(ValueError):
            run_spmd(2, lambda comm: None, alltoall_algorithm="ring")

    def test_shrunk_communicator_rejects_non_pairwise(self):
        """Survivors have a node map, so every schedule composes with
        shrink(): bruck and hierarchical (list and matrix forms) return
        the pairwise result bitwise."""

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
            ref = np.stack(shrunk.alltoall(list(buf), algorithm="pairwise"))
            for algo in ("bruck", "hierarchical"):
                got = np.stack(shrunk.alltoall(list(buf), algorithm=algo))
                assert got.tobytes() == ref.tobytes(), algo
                mat = shrunk.alltoall_matrix(buf, algorithm=algo)
                assert mat.tobytes() == ref.tobytes(), algo
            return ref

        res = run_spmd(
            5,
            body,
            ranks_per_node=2,
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
        _, stats = _exchange(nranks, rpn, algorithm)
        assert stats.total_inter_node_messages == (
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
        pairs, fewer header bytes cross the fabric, and the fat-tree
        model prices the hierarchical exchange below pairwise."""
        from repro.cluster.topology import FatTree

        fabric, nnodes = FatTree(), 16 // rpn
        pair_out, pair = _exchange(16, rpn, "pairwise", elems=1024)
        hier_out, hier = _exchange(16, rpn, "hierarchical", elems=1024)
        assert np.array_equal(hier_out, pair_out)
        assert pair.total_inter_node_messages == pair_msgs
        assert hier.total_inter_node_messages == hier_msgs
        assert hier.total_inter_node_bytes < pair.total_inter_node_bytes

        def modelled(st):
            return fabric.alltoall_time(
                st.total_inter_node_bytes, nnodes,
                messages=st.total_inter_node_messages,
            )

        assert modelled(hier) < modelled(pair)

    def test_payload_volume_is_algorithm_invariant(self):
        # Every off-node element crosses the fabric exactly once under
        # pairwise and hierarchical; headers are the only byte delta.
        _, pair = _exchange(8, 4, "pairwise", elems=64)
        _, hier = _exchange(8, 4, "hierarchical", elems=64)
        pair_payload = pair.total_inter_node_bytes - 64 * pair.total_inter_node_messages
        hier_payload = hier.total_inter_node_bytes - 64 * hier.total_inter_node_messages
        assert pair_payload == hier_payload
        assert hier.total_inter_node_bytes < pair.total_inter_node_bytes


class TestComposition:
    @pytest.mark.parametrize("algorithm", ["bruck", "hierarchical"])
    def test_survives_bitflips_under_reliable_transport(self, algorithm):
        policy = TransportPolicy(retry_timeout=0.05, max_retries=8)

        def body(comm, algorithm=algorithm):
            gen = np.random.default_rng(17 + comm.rank)
            objs = [gen.standard_normal(16) for _ in range(4)]
            return np.stack(comm.alltoall(objs, algorithm=algorithm))

        chaotic = run_spmd(
            4, body, ranks_per_node=2, transport=policy,
            faults=ChaosSchedule(seed=3, p_bitflip=0.2),
            timeout=30,
        )
        clean = run_spmd(4, body, ranks_per_node=2)
        assert np.array_equal(
            np.stack(chaotic.values), np.stack(clean.values)
        )

    @pytest.mark.parametrize("algorithm", ["bruck", "hierarchical"])
    def test_traced_run_is_bit_transparent_and_recorded(self, algorithm):
        from repro.trace import TraceRecorder

        def body(comm, algorithm=algorithm):
            gen = np.random.default_rng(29 + comm.rank)
            objs = [gen.standard_normal(8) for _ in range(4)]
            return np.stack(comm.alltoall(objs, algorithm=algorithm))

        rec = TraceRecorder()
        traced = run_spmd(4, body, ranks_per_node=2, trace=rec)
        plain = run_spmd(4, body, ranks_per_node=2)
        assert np.array_equal(np.stack(traced.values), np.stack(plain.values))
        assert rec.nevents > 0
        tl = rec.timeline()
        assert any(s.kind == "collective" for s in tl.spans)

    def test_alltoall_rounds_counted_once_per_exchange(self):
        def body(comm):
            objs = [np.zeros(2) for _ in range(4)]
            comm.alltoall(objs, algorithm="hierarchical")
            comm.alltoall(objs, algorithm="bruck")

        res = run_spmd(4, body, ranks_per_node=2)
        assert res.stats.phase("default").alltoall_rounds == 2
