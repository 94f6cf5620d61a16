"""Tests for the happens-before checker: vector clocks over simmpi runs.

Three canonical shapes pin the race predicate from both sides:
unsynchronized cross-rank writes must be flagged; writes ordered by a
message chain must not; concurrent writes under one named guard must
not.  The integration test audits the real dft plan cache under a
fuzzed distributed SOI run and requires a clean bill.
"""

import numpy as np
import pytest

from repro.check import HbTracker, ScheduleController, install_cache_observers, touch_caches
from repro.simmpi import run_spmd


def observer_controller(hb, seed=0):
    """A pure-observer controller: wires HB hooks without perturbation."""
    return ScheduleController(seed=seed, p_hold=0.0, p_jitter=0.0, hb=hb)


class TestRacePredicate:
    def test_unsynchronized_writes_are_flagged(self):
        hb = HbTracker(4)

        def program(comm):
            hb.note_access("shared.counter", kind="w")
            comm.barrier()

        run_spmd(4, program, schedule=observer_controller(hb))
        report = hb.report()
        assert not report["clean"]
        # Every rank pair races with every other: C(4,2) findings.
        assert len(report["findings"]) == 6
        assert all(f["state"] == "shared.counter" for f in report["findings"])
        assert all(f["guards"] == ["<unguarded>"] for f in report["findings"])

    def test_message_chain_orders_the_accesses(self):
        """w(0) -> send -> recv -> w(1): happens-before, not a race."""
        hb = HbTracker(2)

        def program(comm):
            if comm.rank == 0:
                hb.note_access("handoff.state", kind="w")
                comm.send(1.0, 1)
            else:
                comm.recv(0)
                hb.note_access("handoff.state", kind="w")

        run_spmd(2, program, schedule=observer_controller(hb))
        assert hb.report()["clean"]

    def test_barrier_orders_the_accesses(self):
        """Writes on opposite sides of a barrier are ordered for all."""
        hb = HbTracker(4)

        def program(comm):
            if comm.rank == 0:
                hb.note_access("epoch.state", kind="w")
            comm.barrier()
            if comm.rank != 0:
                hb.note_access("epoch.state", kind="w")

        run_spmd(4, program, schedule=observer_controller(hb))
        report = hb.report()
        # Ranks 1..3 still race among themselves, but never with rank 0.
        assert all(0 not in f["ranks"] for f in report["findings"])

    def test_shared_named_guard_suppresses_the_race(self):
        hb = HbTracker(4)

        def program(comm):
            hb.note_access("cache.state", kind="w", guard="cache._lock")
            comm.barrier()

        run_spmd(4, program, schedule=observer_controller(hb))
        assert hb.report()["clean"]

    def test_mismatched_guards_still_race(self):
        """Two different locks do not order anything."""
        hb = HbTracker(2)

        def program(comm):
            guard = "lock_a" if comm.rank == 0 else "lock_b"
            hb.note_access("split.state", kind="w", guard=guard)
            comm.barrier()

        run_spmd(2, program, schedule=observer_controller(hb))
        report = hb.report()
        assert not report["clean"]
        assert report["findings"][0]["guards"] == ["lock_a", "lock_b"]

    def test_concurrent_reads_are_not_races(self):
        hb = HbTracker(4)

        def program(comm):
            hb.note_access("table.state", kind="r")
            comm.barrier()

        run_spmd(4, program, schedule=observer_controller(hb))
        assert hb.report()["clean"]

    def test_driver_thread_accesses_are_ignored(self):
        hb = HbTracker(2)
        hb.note_access("outside.state", kind="w")  # not on a rank thread
        assert hb.report()["states_audited"] == {}


class TestReportShape:
    def test_report_is_json_safe_and_counts_coverage(self):
        import json

        hb = HbTracker(2)

        def program(comm):
            hb.note_access("a.state", kind="w")
            comm.barrier()

        run_spmd(2, program, schedule=observer_controller(hb))
        report = hb.report()
        json.dumps(report)
        assert report["nranks"] == 2
        assert report["states_audited"] == {"a.state": 2}
        assert report["accesses_dropped"] == 0

    def test_new_run_resets_the_log(self):
        hb = HbTracker(2)

        def program(comm):
            hb.note_access("b.state", kind="w")
            comm.barrier()

        run_spmd(2, program, schedule=observer_controller(hb))
        assert not hb.report()["clean"]
        hb.new_run()
        assert hb.report() == {
            "nranks": 2,
            "states_audited": {},
            "accesses_dropped": 0,
            "findings": [],
            "clean": True,
        }


class TestPlanCacheAudit:
    def test_dft_plan_cache_is_race_free_under_fuzzing(self):
        """The real target: rank threads hammer the dft plan cache
        through the repro backend while the schedule is perturbed; the
        lock-guarded accesses must audit clean."""
        from repro.core.plan import soi_plan_for
        from repro.parallel import soi_fft_distributed

        plan = soi_plan_for(2048, 8, window="digits10")
        gen = np.random.default_rng(17)
        x = gen.standard_normal(2048) + 1j * gen.standard_normal(2048)

        def program(comm):
            block = plan.n // comm.size
            lo = comm.rank * block
            return soi_fft_distributed(
                comm, x[lo : lo + block], plan, backend="repro"
            )

        hb = HbTracker(4)
        restore = install_cache_observers(hb)
        try:
            run_spmd(4, program, schedule=ScheduleController(seed=3, hb=hb))
        finally:
            restore()
        report = hb.report()
        assert "dft.plan_cache" in report["states_audited"]
        assert report["clean"], report["findings"]

    def test_install_cache_observers_restores_previous(self):
        from repro.utils import cache

        hb = HbTracker(2)
        restore = install_cache_observers(hb)
        assert cache.observer is not None
        restore()
        assert cache.observer is None

    def test_one_world_audits_every_cache(self):
        """touch_caches enters all five caches from every rank at once;
        with no controller no edge orders the accesses, so only the
        caches' own locks keep the audit clean."""
        hb = HbTracker(4)
        restore = install_cache_observers(hb)
        try:
            run_spmd(4, touch_caches)
        finally:
            restore()
        report = hb.report()
        assert report["states_audited"] == dict.fromkeys(
            [
                "core.soi_plan_cache",
                "dft.plan_cache",
                "dft.twiddles",
                "parallel.twiddle_tables",
                "serve.nufft_plans",
            ],
            4,
        )
        assert report["clean"], report["findings"]
