"""Execution-context identity and the pools keyed on it.

The DES engine recycles a finished rank's OS thread as the vessel for a
later rank, so ``threading.get_ident()`` aliases across ranks.  These
tests pin the three layers that must survive that aliasing:

- :func:`repro.exectx.execution_context` itself (distinct per rank,
  stable per rank, thread fallback outside SPMD);
- the scratch pools in :mod:`repro.dft.engine` and
  :meth:`repro.core.plan.SoiPlan.window_view` (no cross-context buffer
  sharing even on one OS thread);
- the happens-before/cache observers, whose rank attribution via
  :func:`repro.simmpi.runtime.current_rank` must hold under DES.
"""

import threading

import numpy as np
import pytest

from repro.check import HbTracker, ScheduleController, install_cache_observers
from repro.core.plan import SoiPlan
from repro.dft.engine import _scratch_pool
from repro.exectx import (
    execution_context,
    reset_execution_context,
    set_execution_context,
)
from repro.simmpi import run_spmd
from repro.simmpi.runtime import current_rank


class TestExecutionContext:
    def test_thread_fallback(self):
        assert execution_context() == ("thread", threading.get_ident())

    def test_set_reset_roundtrip(self):
        before = execution_context()
        prev = set_execution_context(("world", 99, 3))
        try:
            assert execution_context() == ("world", 99, 3)
        finally:
            reset_execution_context(prev)
        assert execution_context() == before

    @pytest.mark.parametrize("engine", ["thread", "des"])
    def test_rank_identity_under_spmd(self, engine):
        """Each rank sees ("world", token, rank) and current_rank() == rank."""

        def program(comm):
            ctx = execution_context()
            assert ctx[0] == "world" and ctx[2] == comm.rank
            assert current_rank() == comm.rank
            return ctx

        res = run_spmd(8, program, engine=engine)
        assert len({c[1] for c in res.values}) == 1  # one world token
        assert [c[2] for c in res.values] == list(range(8))
        assert len(set(res.values)) == 8
        # The rank contexts died with the run: this thread is a plain
        # thread again.
        assert execution_context()[0] == "thread"

    def test_world_tokens_distinct_across_runs(self):
        def program(comm):
            return execution_context()[1]

        t1 = run_spmd(2, program).values[0]
        t2 = run_spmd(2, program).values[0]
        assert t1 != t2


class TestContextKeyedPools:
    def test_scratch_pool_distinct_per_context_on_one_thread(self):
        """Two contexts hosted by the same OS thread get disjoint pools."""
        prev = set_execution_context(("world", -1, 0))
        try:
            pool_a = _scratch_pool()
            pool_a["sentinel"] = "rank0"
            set_execution_context(("world", -1, 1))
            pool_b = _scratch_pool()
            assert pool_b is not pool_a
            assert "sentinel" not in pool_b
        finally:
            reset_execution_context(prev)

    def test_scratch_pool_stable_within_a_context(self):
        prev = set_execution_context(("world", -2, 0))
        try:
            assert _scratch_pool() is _scratch_pool()
        finally:
            reset_execution_context(prev)

    def test_window_view_buffer_survives_context_recycling(self):
        """A later context on the same thread must not scribble over an
        earlier context's still-referenced window buffer (the DES
        vessel-recycling hazard: the view aliases pooled storage)."""
        plan = SoiPlan(4096, 8)
        rng = np.random.default_rng(5)
        a = rng.standard_normal(plan.n) + 1j * rng.standard_normal(plan.n)
        b = rng.standard_normal(plan.n) + 1j * rng.standard_normal(plan.n)
        prev = set_execution_context(("world", -3, 0))
        try:
            view_a = plan.window_view(a, a[: plan.b * plan.p], plan.q_chunks)
            want = view_a.copy()
            set_execution_context(("world", -3, 1))
            plan.window_view(b, b[: plan.b * plan.p], plan.q_chunks)
            np.testing.assert_array_equal(view_a, want)
        finally:
            reset_execution_context(prev)

    def test_des_ranks_share_threads_but_not_pools(self):
        """Recycling really happens, and pools stay rank-private anyway.

        A communication-free program lets the DES engine host many ranks
        on few vessels; per-rank FFTs then exercise the scratch pool on
        aliased OS threads.
        """

        def program(comm):
            from repro.dft import fft

            pool = _scratch_pool()
            # A recycled vessel's previous rank left a marker in ITS
            # pool; finding it here would mean we inherited that pool
            # (exactly what thread-keyed pools did).
            assert "owner" not in pool
            pool["owner"] = comm.rank
            x = np.full(256, comm.rank, dtype=np.complex128)
            y = fft(x)
            # Bin 0 is the sum: any cross-rank scratch corruption that
            # escaped would break this exact identity.
            assert y[0] == 256 * comm.rank
            assert _scratch_pool() is pool  # stable for the rank's life
            assert pool["owner"] == comm.rank
            return threading.get_ident()

        res = run_spmd(64, program, engine="des")
        assert len(set(res.values)) < 64  # vessels were recycled across ranks


class TestObserverAttributionUnderDes:
    def _controller(self, hb):
        return ScheduleController(seed=0, p_hold=0.0, p_jitter=0.0, hb=hb)

    def test_race_detection_attributes_ranks_under_des(self):
        hb = HbTracker(4)

        def program(comm):
            hb.note_access("shared.counter", kind="w")
            comm.barrier()

        run_spmd(4, program, schedule=self._controller(hb), engine="des")
        report = hb.report()
        assert not report["clean"]
        assert len(report["findings"]) == 6  # every pair of 4 ranks

    def test_message_chain_orders_accesses_under_des(self):
        hb = HbTracker(2)

        def program(comm):
            if comm.rank == 0:
                hb.note_access("handoff.state", kind="w")
                comm.send(1.0, 1)
            else:
                comm.recv(0)
                hb.note_access("handoff.state", kind="w")

        run_spmd(2, program, schedule=self._controller(hb), engine="des")
        assert hb.report()["clean"]

    def test_plan_cache_observer_clean_under_des(self):
        """The real dft plan-cache accesses audit clean on DES ranks."""
        hb = HbTracker(4)
        restore = install_cache_observers(hb)
        try:

            def program(comm):
                from repro.dft import fft

                return fft(np.arange(128, dtype=np.complex128))[0]

            run_spmd(4, program, schedule=self._controller(hb), engine="des")
        finally:
            restore()
        report = hb.report()
        assert report["clean"], report["findings"]
