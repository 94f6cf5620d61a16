"""Tests for byte-accurate traffic accounting."""

import numpy as np

from repro.simmpi import TrafficStats, run_spmd


class TestByteAccounting:
    def test_numpy_bytes_counted_exactly(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100, dtype=np.complex128), dest=1)
            else:
                comm.recv(source=0)

        res = run_spmd(2, prog)
        assert res.stats.phase("default").bytes_by_pair[(0, 1)] == 1600

    def test_offnode_excludes_self_sends(self):
        def prog(comm):
            return comm.alltoall(
                [np.zeros(10, dtype=np.float64) for _ in range(comm.size)]
            )

        res = run_spmd(2, prog)
        ph = res.stats.phase("default")
        # each rank: 1 off-node (80 B) + 1 self (80 B)
        assert ph.offnode_bytes() == 160
        assert ph.total_bytes == 320


class TestPhases:
    def test_phase_labels_partition_traffic(self):
        def prog(comm):
            dst = 1 - comm.rank
            with comm.phase("alpha"):
                comm.send(np.zeros(2), dest=dst)
                comm.recv(source=dst)
            with comm.phase("beta"):
                comm.send(np.zeros(4), dest=dst)
                comm.recv(source=dst)

        res = run_spmd(2, prog)
        assert res.stats.phase("alpha").total_bytes == 2 * 16
        assert res.stats.phase("beta").total_bytes == 2 * 32
        assert sorted(res.stats.phases()) == ["alpha", "beta"]

    def test_nested_phases_restore(self):
        def prog(comm):
            dst = 1 - comm.rank
            with comm.phase("outer"):
                with comm.phase("inner"):
                    comm.send(b"xx", dest=dst)
                    comm.recv(source=dst)
                comm.send(b"yyyy", dest=dst)
                comm.recv(source=dst)

        res = run_spmd(2, prog)
        assert res.stats.phase("inner").total_bytes == 4
        assert res.stats.phase("outer").total_bytes == 8

    def test_alltoall_round_counted_once_per_collective(self):
        def prog(comm):
            with comm.phase("x"):
                comm.alltoall([0] * comm.size)
                comm.alltoall([1] * comm.size)

        res = run_spmd(4, prog)
        assert res.stats.phase("x").alltoall_rounds == 2
        assert res.stats.alltoall_rounds == 2


class TestSummary:
    def test_summary_mentions_phases(self):
        def prog(comm):
            with comm.phase("transpose-1"):
                comm.alltoall([np.zeros(1) for _ in range(comm.size)])

        res = run_spmd(2, prog)
        text = res.stats.summary()
        assert "transpose-1" in text
        assert "all-to-all" in text

    def test_standalone_stats_object(self):
        stats = TrafficStats()
        stats.record_message("p", 0, 1, 100)
        stats.record_message("p", 1, 1, 50)
        assert stats.phase("p").total_bytes == 150
        assert stats.phase("p").offnode_bytes() == 100
        assert stats.total_bytes == 150


class TestAsDictRoundTrip:
    """JSON-safe export of traffic statistics (satellite of the trace PR)."""

    def _stats_from_run(self):
        def prog(comm):
            with comm.phase("exchange"):
                comm.alltoall([np.zeros(16) for _ in range(comm.size)])
            with comm.phase("ring"):
                right = (comm.rank + 1) % comm.size
                left = (comm.rank - 1) % comm.size
                comm.sendrecv(np.zeros(8), dest=right, source=left)

        return run_spmd(3, prog).stats

    def test_pair_keys_are_json_strings(self):
        import json

        d = self._stats_from_run().as_dict()
        json.dumps(d)  # must serialise without a custom encoder
        pairs = d["phases"]["exchange"]["bytes_by_pair"]
        assert pairs  # traffic was recorded
        assert all("->" in k for k in pairs)
        assert pairs["0->1"] == 128

    def test_reliability_counters_survive_round_trip(self):
        stats = TrafficStats()
        stats.record_message("p", 0, 1, 100)
        stats.record_retransmit("p", 0, 1, 100)
        stats.record_corrupt("p")
        stats.record_duplicate("p")
        stats.record_ack("p", 12)
        ph = stats.as_dict()["phases"]["p"]
        assert ph["retransmits"] == 1 and ph["retransmit_bytes"] == 100
        assert ph["corrupt_detected"] == 1 and ph["duplicates_discarded"] == 1
        assert ph["acks"] == 1 and ph["control_bytes"] == 12

    def test_recovery_counters_survive_round_trip(self):
        """Resilience accounting: recovery bytes, recomputed flops and
        detections must reach the exported document."""
        stats = TrafficStats()
        stats.record_failure_detected("alltoall")
        stats.record_recovery("recover", nbytes=4096, flops=125_000)
        stats.record_recovery("recover", nbytes=512)
        phases = stats.as_dict()["phases"]
        assert phases["alltoall"]["detected_failures"] == 1
        assert phases["recover"]["recovery_bytes"] == 4608
        assert phases["recover"]["recovery_flops"] == 125_000
        assert stats.total_recovery_bytes == 4608
        assert stats.total_recovery_flops == 125_000
        assert stats.total_detected_failures == 1

    def test_recovery_counters_default_to_zero(self):
        stats = self._stats_from_run()
        assert stats.total_recovery_bytes == 0
        assert stats.total_recovery_flops == 0
        assert stats.total_detected_failures == 0
        assert all(ph["recovery_bytes"] == 0 for ph in stats.as_dict()["phases"].values())

    def test_phase_traffic_as_dict_is_sorted(self):
        from repro.simmpi.stats import PhaseTraffic

        ph = PhaseTraffic()
        ph.bytes_by_pair[(2, 0)] = 5
        ph.bytes_by_pair[(0, 1)] = 3
        d = ph.as_dict()
        assert list(d["bytes_by_pair"]) == ["0->1", "2->0"]
        assert d["bytes_by_pair"] == {"0->1": 3, "2->0": 5}


class TestRequestDepth:
    """Outstanding-request depth accounting (nonblocking PR satellite)."""

    def test_post_claim_histogram(self):
        stats = TrafficStats()
        stats.record_request_post("p", 0)
        stats.record_request_post("p", 0)
        stats.record_request_complete("p", 0)
        stats.record_request_post("p", 0)
        ph = stats.phase("p")
        assert ph.max_outstanding == 2
        # Transitions: ->1, ->2, ->1, ->2.
        assert ph.time_at_depth == {1: 2, 2: 2}

    def test_depth_is_per_rank_per_phase(self):
        stats = TrafficStats()
        stats.record_request_post("p", 0)
        stats.record_request_post("p", 1)  # a different rank's queue
        stats.record_request_post("q", 0)  # a different phase's queue
        assert stats.phase("p").max_outstanding == 1
        assert stats.phase("q").max_outstanding == 1

    def test_claim_floors_at_zero(self):
        stats = TrafficStats()
        stats.record_request_complete("p", 0)
        assert stats.phase("p").max_outstanding == 0
        assert stats.phase("p").time_at_depth == {0: 1}

    def test_depth_keys_are_json_strings(self):
        import json

        stats = TrafficStats()
        stats.record_request_post("p", 0)
        d = stats.as_dict()
        json.dumps(d)
        assert d["phases"]["p"]["max_outstanding"] == 1
        assert list(d["phases"]["p"]["time_at_depth"]) == ["1"]
