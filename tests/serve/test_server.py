"""Tests for the transform server: lifecycle, validation, typed errors.

Timing-sensitive tests park requests behind a long batch-formation
window (``batch_linger_s``) so the worker is provably asleep while the
test mutates server state — margins are hundreds of milliseconds, not
scheduler luck.
"""

import re
import time

import numpy as np
import pytest

from repro.serve import (
    AdmissionRejected,
    DeadlineExceeded,
    ServeConfig,
    ServerClosed,
    TransformServer,
)


def _signal(n, seed=0):
    gen = np.random.default_rng(seed)
    return gen.standard_normal(n) + 1j * gen.standard_normal(n)


class TestLifecycle:
    def test_submit_before_start_raises(self):
        srv = TransformServer(ServeConfig())
        with pytest.raises(ServerClosed, match="new"):
            srv.submit(_signal(64))

    def test_start_twice_raises(self):
        with TransformServer(ServeConfig(workers=1)) as srv:
            with pytest.raises(ServerClosed, match="running"):
                srv.start()

    def test_submit_after_stop_raises(self):
        srv = TransformServer(ServeConfig(workers=1)).start()
        srv.stop()
        with pytest.raises(ServerClosed, match="stopped"):
            srv.submit(_signal(64))

    def test_stop_is_idempotent(self):
        srv = TransformServer(ServeConfig(workers=1)).start()
        srv.stop()
        srv.stop()

    def test_context_manager_drains_pending_work(self):
        xs = [_signal(128, seed=i) for i in range(5)]
        with TransformServer(
            ServeConfig(workers=1, default_library="numpy", batch_linger_s=0.02)
        ) as srv:
            tickets = [srv.submit(x) for x in xs]
        # __exit__ drains: every ticket resolved with its result.
        for x, ticket in zip(xs, tickets):
            np.testing.assert_array_equal(ticket.result(timeout=0.0), np.fft.fft(x))

    def test_stop_without_drain_fails_pending_with_server_closed(self):
        cfg = ServeConfig(workers=1, batch_linger_s=0.5, default_library="numpy")
        srv = TransformServer(cfg).start()
        tickets = [srv.submit(_signal(64, seed=i)) for i in range(4)]
        srv.stop(drain=False, timeout=5.0)  # well inside the 500 ms linger
        for ticket in tickets:
            with pytest.raises(ServerClosed):
                ticket.result(timeout=0.0)
        statuses = [s.status for s in srv.metrics.spans()]
        assert statuses.count("closed") == 4


class TestResults:
    def test_dft_numpy_matches_numpy_fft(self):
        x = _signal(256)
        with TransformServer(ServeConfig(workers=1)) as srv:
            out = srv.submit(x, library="numpy").result(timeout=10.0)
        np.testing.assert_array_equal(out, np.fft.fft(x))

    def test_dft_repro_inverse_matches_plan(self):
        from repro.dft import plan_for

        x = _signal(256)
        with TransformServer(ServeConfig(workers=1)) as srv:
            out = srv.submit(
                x, direction="inverse", library="repro"
            ).result(timeout=10.0)
        np.testing.assert_array_equal(
            out, plan_for(256, x.dtype).execute(x, inverse=True)
        )

    def test_transpose_backend_serves_the_distributed_fft(self):
        x = _signal(256)
        with TransformServer(ServeConfig(workers=1)) as srv:
            out = srv.submit(
                x, backend="transpose", library="numpy", nranks=4
            ).result(timeout=30.0)
        np.testing.assert_allclose(out, np.fft.fft(x), rtol=1e-9, atol=1e-9)

    def test_executor_error_propagates_to_every_ticket(self, monkeypatch):
        import repro.serve.server as server_mod

        def boom(batch):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(server_mod, "execute_batch", boom)
        with TransformServer(
            ServeConfig(workers=1, default_library="numpy")
        ) as srv:
            ticket = srv.submit(_signal(64))
            with pytest.raises(RuntimeError, match="kernel exploded"):
                ticket.result(timeout=10.0)
        assert [s.status for s in srv.metrics.spans()] == ["error"]


class TestDefaultLibrary:
    """A request without ``library=`` runs numpy.fft in every executor;
    ``library="repro"`` still runs the repro engine."""

    def test_defaults_are_numpy_bitwise(self):
        from fractions import Fraction

        from repro.core import soi_fft, soi_plan_for
        from repro.dft import plan_for
        from repro.parallel import split_blocks, transpose_fft_distributed
        from repro.simmpi import run_spmd

        x = _signal(1024)
        with TransformServer(ServeConfig(workers=1)) as srv:
            dft = srv.submit(x).result(timeout=10.0)
            soi = srv.submit(x, backend="soi", p=8).result(timeout=30.0)
            six = srv.submit(x, backend="transpose", nranks=4).result(timeout=30.0)
            opt_in = srv.submit(x, library="repro").result(timeout=10.0)
        assert {s.library for s in srv.metrics.spans()} == {"numpy", "repro"}
        np.testing.assert_array_equal(dft, np.fft.fft(x))
        plan = soi_plan_for(1024, 8, beta=Fraction(1, 4), window="full")
        np.testing.assert_array_equal(soi, soi_fft(x, plan, backend="numpy"))
        blocks = split_blocks(x, 4)
        res = run_spmd(4, lambda comm: transpose_fft_distributed(
            comm, blocks[comm.rank], 1024, backend="numpy"
        ))
        np.testing.assert_array_equal(six, np.concatenate(res.values))
        np.testing.assert_array_equal(opt_in, plan_for(1024).execute(x))


class TestSubmitValidation:
    """Argument validation happens before the running-state check, so an
    unstarted server is enough to pin every rejection."""

    @pytest.fixture()
    def srv(self):
        return TransformServer(ServeConfig())

    def test_bad_direction(self, srv):
        with pytest.raises(ValueError, match="direction"):
            srv.submit(_signal(64), direction="sideways")

    def test_bad_backend(self, srv):
        with pytest.raises(ValueError, match="backend"):
            srv.submit(_signal(64), backend="quantum")

    def test_bad_library(self, srv):
        with pytest.raises(ValueError, match="library"):
            srv.submit(_signal(64), library="mkl")

    def test_payload_must_be_1d_and_nonempty(self, srv):
        with pytest.raises(ValueError, match="1-D"):
            srv.submit(np.zeros((4, 4), dtype=np.complex128))
        with pytest.raises(ValueError, match="1-D"):
            srv.submit(np.zeros(0, dtype=np.complex128))

    def test_unknown_priority_class(self, srv):
        with pytest.raises(ValueError, match="priority class"):
            srv.submit(_signal(64), priority="platinum")

    def test_negative_priority(self, srv):
        with pytest.raises(ValueError, match="priority"):
            srv.submit(_signal(64), priority=-1)

    def test_nonpositive_deadline(self, srv):
        with pytest.raises(ValueError, match="deadline_s"):
            srv.submit(_signal(64), deadline_s=0.0)

    def test_unexpected_backend_params(self, srv):
        with pytest.raises(TypeError, match="unexpected dft parameters"):
            srv.submit(_signal(64), nranks=4)
        # The exchange schedule belongs to the world, not the request.
        with pytest.raises(
            TypeError,
            match=re.escape("unexpected transpose parameters: ['algorithm']"),
        ):
            srv.submit(
                _signal(64), backend="transpose", nranks=4,
                algorithm="hierarchical",
            )

    def test_transpose_rejects_inverse(self, srv):
        with pytest.raises(ValueError, match="forward"):
            srv.submit(
                _signal(64), backend="transpose", direction="inverse", nranks=4
            )

    def test_nufft_rejects_bad_kind(self, srv):
        with pytest.raises(ValueError, match="kind"):
            srv.submit(
                _signal(64), backend="nufft",
                points=np.linspace(0, 0.9, 64), k_modes=128, kind=3,
            )


class TestOverloadPaths:
    def test_sync_rejection_then_shed_then_service(self):
        cfg = ServeConfig(
            workers=1, max_queue=1, max_batch=8,
            batch_linger_s=0.5, default_library="numpy",
            age_promote_s=0.0,
        )
        x = _signal(128)
        with TransformServer(cfg) as srv:
            first = srv.submit(x, priority="batch")
            # Equal urgency + full queue: rejected at the door.
            with pytest.raises(AdmissionRejected) as exc:
                srv.submit(x, priority="batch")
            assert exc.value.shed is False
            # More urgent work sheds the queued request.
            winner = srv.submit(x, priority="interactive")
            with pytest.raises(AdmissionRejected) as shed_exc:
                first.result(timeout=5.0)
            assert shed_exc.value.shed is True
            np.testing.assert_array_equal(
                winner.result(timeout=10.0), np.fft.fft(x)
            )
            counters = srv.admission_counters()
        assert counters["rejected"] == 1
        assert counters["shed_capacity"] == 1
        assert counters["admitted"] == 2
        statuses = sorted(s.status for s in srv.metrics.spans())
        assert statuses == ["ok", "rejected", "shed"]

    def test_deadline_exceeded_is_delivered_through_the_ticket(self):
        cfg = ServeConfig(
            workers=1, max_batch=64, batch_linger_s=0.05,
            default_library="numpy",
        )
        with TransformServer(cfg) as srv:
            ticket = srv.submit(_signal(128), deadline_s=0.005)
            with pytest.raises(DeadlineExceeded) as exc:
                ticket.result(timeout=10.0)
            assert exc.value.deadline_s == pytest.approx(0.005)
            assert exc.value.waited_s > 0.0
        assert [s.status for s in srv.metrics.spans()] == ["deadline"]

    @pytest.fixture(scope="class")
    def burst(self):
        """A burst far past queue capacity, every ticket then claimed.
        Returns (submitted, synchronous rejections, outcomes, counters)."""
        cfg = ServeConfig(
            workers=1, max_queue=16, max_batch=8, batch_linger_s=0.002,
            default_library="numpy",
        )
        xs = [_signal(1024, seed=i) for i in range(2)]
        prios = ("interactive", "batch", "best_effort")
        submitted, rejected_sync, tickets = 120, 0, []
        with TransformServer(cfg) as srv:
            for i in range(submitted):
                # Every sixth request (all interactive) carries a deadline
                # shorter than one linger window: admitted ahead of the
                # capacity sheds, then expired in the queue.
                kwargs = {"deadline_s": 0.001} if i % 6 == 0 else {}
                try:
                    ticket = srv.submit(xs[i % 2], priority=prios[i % 3], **kwargs)
                    tickets.append(ticket)
                except AdmissionRejected:
                    rejected_sync += 1
                if i % 64 == 63:
                    time.sleep(0.002)  # let the worker serve between sub-bursts
            outcomes = {"ok": 0, "shed": 0, "deadline": 0}
            for ticket in tickets:
                try:
                    ticket.result(timeout=60.0)
                    outcomes["ok"] += 1
                except AdmissionRejected:
                    outcomes["shed"] += 1
                except DeadlineExceeded:
                    outcomes["deadline"] += 1
            counters = srv.admission_counters()
        return submitted, rejected_sync, outcomes, counters

    def test_burst_resolves_every_ticket_typed(self, burst):
        """Every submission ends as exactly one of ok / synchronous
        rejection / shed / deadline, and no ticket hangs."""
        submitted, rejected_sync, outcomes, _ = burst
        assert rejected_sync + sum(outcomes.values()) == submitted

    def test_burst_admission_counters_match_ticket_outcomes(self, burst):
        _, rejected_sync, outcomes, counters = burst
        assert counters["rejected"] == rejected_sync
        assert counters["shed_capacity"] == outcomes["shed"]
        assert counters["shed_deadline"] == outcomes["deadline"]

    def test_burst_actually_overloads(self, burst):
        _, rejected_sync, outcomes, _ = burst
        assert rejected_sync + outcomes["shed"] > 0


class TestObservability:
    def test_warmup_and_report(self):
        cfg = ServeConfig(workers=1, warm_shapes=(64,), default_library="repro")
        with TransformServer(cfg) as srv:
            assert srv.warmup_info()["shapes"]["requested"] == 1
            srv.submit(_signal(64)).result(timeout=10.0)
            report = srv.metrics_report()
        assert report["completed"] == 1
        assert set(report["classes"]) == {"batch"}
        assert "plan_cache" in report and "soi_plan_cache" in report
        assert report["admission"]["admitted"] == 1
