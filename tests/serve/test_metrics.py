"""Tests for latency attribution spans and the SLO report."""

import pytest

from repro.serve import MetricsLog, RequestSpan, percentile


def span(rid=1, *, priority=0, status="ok", t_submit=0.0, t_admit=0.0,
         t_select=0.0, t_exec0=0.0, t_exec1=0.0, t_done=0.0, batch_size=0,
         worker=-1, batch_id=-1):
    return RequestSpan(
        rid=rid, backend="dft", library="numpy", n=64, priority=priority,
        status=status, worker=worker, batch_id=batch_id, batch_size=batch_size,
        t_submit=t_submit, t_admit=t_admit, t_select=t_select,
        t_exec0=t_exec0, t_exec1=t_exec1, t_done=t_done,
    )


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_value_is_every_percentile(self):
        for q in (1, 50, 95, 99, 100):
            assert percentile([7.0], q) == 7.0

    def test_nearest_rank_on_known_list(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0

    def test_rank_is_ceiled(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 51) == 3.0

    def test_returns_an_observed_value(self):
        values = [0.1, 0.9, 10.0]
        for q in (1, 33, 50, 66, 99):
            assert percentile(values, q) in values


class TestRequestSpanAttribution:
    def test_executed_span_splits_into_three_stages(self):
        s = span(
            t_submit=0.9, t_admit=1.0, t_select=1.5,
            t_exec0=1.6, t_exec1=2.0, t_done=2.1,
        )
        assert s.queue_wait_s == pytest.approx(0.5)
        assert s.batch_wait_s == pytest.approx(0.1)
        assert s.execute_s == pytest.approx(0.4)
        assert s.total_s == pytest.approx(1.2)

    def test_never_executed_span_has_zero_stage_times(self):
        s = span(status="shed", t_submit=1.0, t_admit=1.0, t_done=1.5)
        assert s.queue_wait_s == 0.0
        assert s.batch_wait_s == 0.0
        assert s.execute_s == 0.0
        assert s.total_s == pytest.approx(0.5)


class TestMetricsLog:
    def test_record_many_equals_repeated_record(self):
        spans = [span(rid=r, t_submit=float(r), t_done=float(r) + 1) for r in range(3)]
        one = MetricsLog()
        for s in spans:
            one.record(s)
        many = MetricsLog()
        many.record_many(spans)
        assert one.spans() == many.spans()
        assert one.slo_report() == many.slo_report()

    def test_t_start_is_the_earliest_submission(self):
        log = MetricsLog()
        log.record(span(rid=2, t_submit=5.0, t_done=6.0))
        log.record(span(rid=1, t_submit=2.0, t_done=3.0))
        # The report's wall clock runs from there to the last completion.
        assert log.slo_report()["wall_s"] == 4.0

    def test_slo_report_counts_every_status(self):
        log = MetricsLog()
        log.record_many([
            span(rid=1, priority=0, status="ok", t_submit=0.0, t_done=1.0),
            span(rid=2, priority=0, status="ok", t_submit=0.0, t_done=2.0),
            span(rid=3, priority=0, status="deadline", t_submit=0.0, t_done=0.5),
            span(rid=4, priority=1, status="shed", t_submit=0.0, t_done=0.1),
            span(rid=5, priority=1, status="rejected", t_submit=0.0, t_done=0.1),
            span(rid=6, priority=2, status="error", t_submit=0.0, t_done=0.1),
        ])
        report = log.slo_report({"admitted": 5, "rejected": 1})
        assert report["requests"] == 6
        assert report["completed"] == 2
        assert set(report["classes"]) == {"interactive", "batch", "best_effort"}
        interactive = report["classes"]["interactive"]
        assert interactive["submitted"] == 3
        assert interactive["completed"] == 2
        assert interactive["shed_deadline"] == 1
        assert interactive["p50_ms"] <= interactive["p95_ms"] <= interactive["p99_ms"]
        assert interactive["p50_ms"] == pytest.approx(1000.0)
        assert interactive["p99_ms"] == pytest.approx(2000.0)
        batch = report["classes"]["batch"]
        assert batch["shed_capacity"] == 1
        assert batch["rejected"] == 1
        assert report["classes"]["best_effort"]["errors"] == 1
        assert report["admission"] == {"admitted": 5, "rejected": 1}

    def test_custom_priority_integers_get_generated_names(self):
        log = MetricsLog()
        log.record(span(rid=1, priority=7, status="ok", t_done=1.0))
        assert set(log.slo_report()["classes"]) == {"p7"}

    def test_batch_shape_aggregation(self):
        log = MetricsLog()
        assert log.slo_report()["max_batch_size"] == 0
        log.record_batch(1, 0, ("dft", 64), 4, t0=0.0, t1=1.0)
        log.record_batch(2, 0, ("dft", 64), 2, t0=1.0, t1=2.0)
        report = log.slo_report()
        assert report["batches"] == 2
        assert report["mean_batch_size"] == pytest.approx(3.0)
        assert report["max_batch_size"] == 4

    def test_throughput_uses_completed_over_wall(self):
        log = MetricsLog()
        log.record_many([
            span(rid=1, status="ok", t_submit=0.0, t_done=2.0),
            span(rid=2, status="ok", t_submit=1.0, t_done=4.0),
            span(rid=3, status="shed", t_submit=1.0, t_done=1.5),
        ])
        report = log.slo_report()
        assert report["wall_s"] == pytest.approx(4.0)
        assert report["throughput_rps"] == pytest.approx(0.5)
