"""Tests for the Chrome trace-event exporter and the ASCII renderer."""

import io
import json

import numpy as np

from repro.simmpi import run_spmd
from repro.trace import (
    TraceRecorder,
    ascii_timeline,
    chrome_trace,
    write_chrome_trace,
)


def _traced(nranks=4):
    rec = TraceRecorder()

    def prog(comm):
        comm.trace_compute("fft", 1e6 * (comm.rank + 1))
        comm.alltoall([np.zeros(64) for _ in range(comm.size)])
        comm.barrier()

    run_spmd(nranks, prog, engine="des", trace=rec)
    return rec.timeline()


class TestChromeTrace:
    def test_event_schema(self):
        doc = chrome_trace(_traced())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["ranks"] == 4
        for ev in doc["traceEvents"]:
            assert {"ph", "pid", "tid", "name"} <= set(ev)
            assert ev["ph"] in ("M", "X")
            assert ev["pid"] == 0
            if ev["ph"] == "X":
                assert ev["ts"] >= 0.0
                assert ev["dur"] >= 0.0
                assert ev["cat"] in (
                    "compute", "send", "recv", "collective", "wait", "retransmit"
                )

    def test_one_thread_metadata_event_per_rank(self):
        doc = chrome_trace(_traced())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["tid"] for e in meta} == {0, 1, 2, 3}
        assert all(e["name"] == "thread_name" for e in meta)

    def test_timestamps_monotone_per_rank(self):
        doc = chrome_trace(_traced())
        by_tid = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] != "X":
                continue
            prev = by_tid.get(ev["tid"], -1.0)
            assert ev["ts"] >= prev  # rank_spans paints in start order
            by_tid[ev["tid"]] = ev["ts"]

    def test_deterministic_for_identical_runs(self):
        a = json.dumps(chrome_trace(_traced()), sort_keys=True)
        b = json.dumps(chrome_trace(_traced()), sort_keys=True)
        assert a == b

    def test_write_to_path_and_file_object(self, tmp_path):
        tl = _traced(2)
        path = tmp_path / "run.trace.json"
        write_chrome_trace(tl, str(path))
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        buf = io.StringIO()
        write_chrome_trace(tl, buf)
        assert on_disk == json.loads(buf.getvalue())
        assert on_disk["traceEvents"]


class TestAsciiTimeline:
    def test_rows_legend_and_epoch_header(self):
        art = ascii_timeline(_traced(), width=60)
        lines = art.splitlines()
        assert lines[0].lstrip().startswith("a2a")
        assert "A" in lines[0]  # the all-to-all epoch is marked
        for rank in range(4):
            assert any(line.lstrip().startswith(f"rank {rank}") for line in lines)
        assert "#" in art and ">" in art
        assert "ms virtual" in art
        assert "all-to-all epoch" in lines[-1]

    def test_empty_timeline(self):
        assert ascii_timeline(TraceRecorder().timeline()) == "(empty timeline)"
