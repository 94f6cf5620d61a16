"""Tests for timeline rollups, all-to-all epochs and critical paths."""

import json

import numpy as np
import pytest

from repro.simmpi import run_spmd
from repro.trace import (
    TraceRecorder,
    alltoall_epochs,
    critical_path,
    rollup,
)


def _traced(nranks, prog):
    rec = TraceRecorder()
    run_spmd(nranks, prog, engine="des", trace=rec)
    return rec.timeline()


class TestAlltoallEpochs:
    def test_counts_rounds_not_messages(self):
        def prog(comm):
            for _ in range(2):
                comm.alltoall([np.zeros(16) for _ in range(comm.size)])

        assert alltoall_epochs(_traced(4, prog)) == 2

    def test_other_collectives_not_counted(self):
        def prog(comm):
            comm.bcast(np.zeros(8) if comm.rank == 0 else None, root=0)
            comm.barrier()

        assert alltoall_epochs(_traced(3, prog)) == 0

    def test_empty_timeline(self):
        assert alltoall_epochs(TraceRecorder().timeline()) == 0


class TestCriticalPath:
    def test_covers_makespan_on_clean_run(self):
        def prog(comm):
            comm.trace_compute("work", 1e6 * (comm.rank + 1))
            comm.alltoall([np.zeros(64) for _ in range(comm.size)])
            comm.barrier()

        cp = critical_path(_traced(4, prog))
        assert cp.makespan > 0.0
        assert cp.coverage == pytest.approx(1.0, abs=0.05)
        assert cp.length_s == pytest.approx(
            sum(s.duration for s in cp.spans) + cp.network_s
        )

    def test_path_is_time_ordered_and_crosses_to_slow_rank(self):
        def prog(comm):
            if comm.rank == 0:
                comm.trace_compute("bottleneck", 1e8)
                comm.send(np.zeros(8), dest=1)
            else:
                comm.recv(source=0)
                comm.trace_compute("tail", 1e5)

        cp = critical_path(_traced(2, prog))
        for a, b in zip(cp.spans, cp.spans[1:]):
            assert a.t0 <= b.t0
        # The dominant compute on rank 0 must be on the path even though
        # rank 1 finishes last.
        assert any(s.name == "bottleneck" for s in cp.spans)
        assert cp.network_s > 0.0  # the path crossed the wire

    def test_empty_timeline(self):
        cp = critical_path(TraceRecorder().timeline())
        assert cp.spans == [] and cp.coverage == 1.0


class TestRollup:
    def test_shape_and_json_safety(self):
        def prog(comm):
            comm.trace_compute("fft", 1e6)
            comm.alltoall([np.zeros(32) for _ in range(comm.size)])

        agg = rollup(_traced(4, prog))
        assert {
            "ranks",
            "span_count",
            "makespan_s",
            "alltoall_epochs",
            "by_kind_s",
            "by_phase_s",
            "by_rank_s",
            "wait_s",
            "wait_fraction",
            "retransmits",
            "critical_path",
        } <= set(agg)
        assert agg["ranks"] == 4
        assert agg["alltoall_epochs"] == 1
        assert agg["by_kind_s"]["compute"] > 0.0
        json.dumps(agg)  # must be JSON-serialisable as-is

    def test_kind_seconds_sum_to_rank_time(self):
        def prog(comm):
            comm.trace_compute("w", 1e6)
            comm.barrier()

        tl = _traced(2, prog)
        agg = rollup(tl)
        total = sum(agg["by_kind_s"].values())
        per_rank = sum(sum(k.values()) for k in agg["by_rank_s"].values())
        assert total == pytest.approx(per_rank)
        # Leaves tile both ranks from 0 to their finish time.
        assert total == pytest.approx(
            sum(s.duration for s in tl.leaf_spans())
        )
