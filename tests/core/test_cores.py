"""A sequential SOI call on every usable CPU (:mod:`repro.core.cores`).

The units are the panels and row blocks of a vector spanning two or more
fft-p panels, and otherwise the vectors of a batch.  The helper budget is
one thread per usable CPU beyond the caller's, and a helper joins a call
only with a free kernel workspace.  The tests force the budget to 0, 1, 2
and 7 helpers by patching the CPU count a fresh plan's kernel sees — the
same knob ``taskset`` turns — and check that the bits never move, that
the budget really is the only limit, that nothing waits on a workspace
its own call holds, that SPMD ranks never fan out, and that a failing
unit reaches the caller with every workspace returned.
"""

import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import repro.core.convolve as convolve
import repro.core.cores as cores
import repro.core.soi as soi
from repro.core import SoiPlan, TauSigmaWindow, soi_convolve, soi_fft, soi_ifft
from repro.dft.backends import FftBackend, get_backend
from repro.simmpi import run_spmd

WINDOW = TauSigmaWindow(tau=0.93, sigma=412.167)
BUDGETS = (0, 1, 2, 7)
GRID = [
    pytest.param(p, beta, dtype, backend,
                 id=f"P{p}-beta{beta}-{np.dtype(dtype).name}-{backend}")
    for p in (16, 64)
    for beta in (Fraction(1, 8), Fraction(1, 4), Fraction(1))
    for dtype in (np.complex64, np.complex128)
    for backend in ("numpy", "repro")
]


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes plans built afterwards see *k* usable CPUs."""
    def force(k):
        monkeypatch.setattr(convolve, "_usable_cpus", lambda: k)
    return force


@pytest.fixture
def fan_outs(monkeypatch):
    """Counts the calls that were shared across CPUs."""
    calls = []
    real = cores.fan_out

    def spy(kernel, units, run):
        if cores.shared(kernel, units):
            calls.append(len(units))
        return real(kernel, units, run)

    monkeypatch.setattr(cores, "fan_out", spy)
    return calls


def _plan(p, beta, dtype, panels):
    """A plan spanning *panels* one-step fft-p panels (a float: the last
    panel ragged); panel widths depend on (P, beta, dtype), not on N."""
    nu = (beta + 1).denominator
    probe = SoiPlan(n=-(-78 // nu) * nu * p, p=p, beta=beta, window=WINDOW, b=78, dtype=dtype)
    kernel = probe._convolver()
    chunks = int(panels * kernel.panel_cols // probe.mu)
    return SoiPlan(n=chunks * nu * p, p=p, beta=beta, window=WINDOW, b=78, dtype=dtype)


def _signal(rng, n, dtype=np.complex128):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(dtype)


def _finishes(fn, timeout=60):
    """``fn()``'s value, run on a thread that must end within *timeout*
    seconds (a call waiting on a workspace its own call holds never does)."""
    box = []
    t = threading.Thread(target=lambda: box.append(fn()), daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "the call did not finish"
    return box[0]


BATCHES = [(0,), (1,), (3,), (2, 2), "fortran"]


class TestBitsDoNotDependOnTheBudget:
    @pytest.mark.parametrize("p,beta,dtype,backend", GRID)
    def test_every_budget_gives_the_same_bits(
        self, p, beta, dtype, backend, rng, cpus, fan_outs, monkeypatch
    ):
        # One-step panels, so small plans already span several of them,
        # and one-row blocks of the back half.
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        monkeypatch.setattr(soi, "_ROW_BLOCK_BYTES", 1)
        for panels in (1, 2, 2.5):
            results = {}
            for helpers in BUDGETS:
                cpus(helpers + 1)
                plan = _plan(p, beta, dtype, panels)
                if helpers == 0:
                    x = _signal(rng, plan.n, dtype)
                del fan_outs[:]
                results[helpers] = (
                    soi_fft(x, plan, backend),
                    soi_ifft(x, plan, backend),
                    soi_convolve(x, plan),
                )
                kernel = plan._kernel
                assert kernel.cpus == helpers + 1
                assert len(kernel.panel_units(plan.q_chunks, 0)) == {1: 1, 2: 2, 2.5: 3}[panels]
                # soi_fft and soi_ifft each share two halves; soi_convolve never.
                assert len(fan_outs) == (4 if helpers and panels > 1 else 0), (panels, helpers)
                assert len(kernel._slots.queue) == helpers + 1
            for helpers in BUDGETS[1:]:
                for got, want in zip(results[helpers], results[0]):
                    assert got.dtype == plan.dtype
                    assert np.array_equal(got, want), (panels, helpers)

    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    def test_shipped_panels_at_two_to_the_eighteen(self, backend, rng, cpus):
        """No patched panel width: 2^18 / 64 spans 2.67 panels."""
        x = _signal(rng, 1 << 18)
        want = None
        for helpers in BUDGETS:
            cpus(helpers + 1)
            plan = SoiPlan(n=1 << 18, p=64)
            got = soi_fft(x, plan, backend)
            if want is None:
                want = got
                assert len(plan._kernel.panel_units(plan.q_chunks, 0)) == 3
            assert np.array_equal(got, want), helpers

    def test_batched_rows_match_solo_calls(self, rng, cpus, monkeypatch):
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        cpus(3)
        plan = _plan(16, Fraction(1, 4), np.complex128, 3)
        xb = np.stack([_signal(rng, plan.n) for _ in range(3)])
        out = soi_fft(xb, plan)
        for i in range(3):
            assert np.array_equal(out[i], soi_fft(xb[i], plan))


class TestBatchedVectorsAreTheUnits:
    """A batch of vectors under two panels shares its vectors."""

    @pytest.mark.parametrize("panels", [0.9, 2])
    def test_no_unit_waits_on_its_own_call(self, panels, rng, cpus, monkeypatch):
        """Two CPUs, two vectors: the caller and the helper each hold one
        workspace, so a unit that checked out another would wait forever."""
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        cpus(2)
        plan = _plan(16, Fraction(1, 4), np.complex128, panels)
        xb = _signal(rng, (2, plan.n))
        for f in (soi_fft, soi_ifft):
            want = np.stack([f(x, plan) for x in xb])
            for _ in range(5):
                assert np.array_equal(_finishes(lambda: f(xb, plan)), want), f.__name__
        assert len(plan._kernel._slots.queue) == 2

    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128], ids=["complex64", "complex128"])
    def test_every_budget_gives_the_same_bits(
        self, dtype, backend, rng, cpus, fan_outs, monkeypatch
    ):
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        results = {}
        for helpers in BUDGETS:
            cpus(helpers + 1)
            plan = _plan(16, Fraction(1, 4), dtype, 0.9)
            if helpers == 0:
                inputs = [
                    np.asfortranarray(_signal(rng, (3, plan.n), dtype)) if lead == "fortran"
                    else _signal(rng, lead + (plan.n,), dtype)
                    for lead in BATCHES
                ]
            del fan_outs[:]
            results[helpers] = [
                (soi_fft(x, plan, backend), soi_ifft(x, plan, backend)) for x in inputs
            ]
            assert len(plan._kernel.panel_units(plan.q_chunks, 0)) == 1
            # (3,), (2, 2) and the Fortran batch, forward and inverse.
            assert len(fan_outs) == (6 if helpers else 0), helpers
            assert fan_outs == [] or set(fan_outs) == {3, 4}
            assert len(plan._kernel._slots.queue) == helpers + 1
        for helpers in BUDGETS[1:]:
            for x, got, want in zip(inputs, results[helpers], results[0]):
                for g, w in zip(got, want):
                    assert g.dtype == plan.dtype and g.shape == x.shape
                    assert np.array_equal(g, w), helpers

    @pytest.mark.parametrize("panels", [0.9, 2])
    def test_batch_is_its_stacked_solo_calls(self, panels, rng, cpus, monkeypatch):
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        cpus(3)
        plan = _plan(16, Fraction(1, 4), np.complex128, panels)
        xb = _signal(rng, (2, 2, plan.n))
        for f in (soi_fft, soi_ifft):
            out = f(xb, plan)
            for idx in np.ndindex(2, 2):
                assert np.array_equal(out[idx], f(xb[idx], plan)), (f.__name__, idx)

    def test_inverse_needs_no_batch_sized_temporary(self, rng, cpus):
        """A warm soi_ifft peaks no higher than soi_fft plus one vector:
        the input's conjugate is written into the window buffer."""
        cpus(1)
        plan = SoiPlan(n=1 << 16, p=16)
        x = _signal(rng, (8, plan.n))
        peaks = {}
        for f in (soi_fft, soi_ifft) * 2:   # the first round warms up
            tracemalloc.start()
            try:
                f(x, plan)
                peaks[f] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[soi_ifft] <= peaks[soi_fft] + x[0].nbytes, peaks


class TestTheBudgetIsTheWorkspaces:
    @pytest.mark.parametrize("helpers", [1, 7])
    def test_eight_callers_each_get_their_solo_bits(self, helpers, rng, cpus, monkeypatch):
        """Eight threads share one plan: most calls find every workspace
        busy and run alone; all get the bits of a solo call."""
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        cpus(helpers + 1)
        plan = _plan(16, Fraction(1, 4), np.complex128, 4.5)
        inputs = [_signal(rng, plan.n) for _ in range(8)]
        want = [soi_fft(x, plan) for x in inputs]
        got: dict[int, list] = {}

        def caller(i):
            got[i] = [soi_fft(inputs[i], plan) for _ in range(4)]

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(8):
            assert all(np.array_equal(y, want[i]) for y in got[i]), i
        slots = list(plan._kernel._slots.queue)
        assert len(slots) == helpers + 1
        assert sum(ws is not None for ws in slots) <= helpers + 1

    def test_no_helper_joins_while_every_workspace_is_busy(self, rng, cpus, monkeypatch):
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        cpus(3)
        plan = _plan(16, Fraction(1, 4), np.complex128, 4)
        x = _signal(rng, plan.n)
        want = soi_fft(x, plan)
        kernel = plan._kernel
        held = [kernel.checkout(), kernel.checkout()]   # all but the caller's
        seen = set()
        real = kernel._fill

        def fill(*args):
            seen.add(threading.current_thread().name)
            return real(*args)

        monkeypatch.setattr(kernel, "_fill", fill)
        try:
            assert np.array_equal(soi_fft(x, plan), want)
        finally:
            for ws in held:
                kernel.checkin(ws)
        assert seen == {threading.current_thread().name}


class TestInsideRanks:
    @pytest.mark.parametrize("engine", ["thread", "des"])
    def test_ranks_never_fan_out(self, engine, rng, cpus, fan_outs, monkeypatch):
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        monkeypatch.setattr(soi, "_ROW_BLOCK_BYTES", 1)
        cpus(4)
        plan = _plan(16, Fraction(1, 4), np.complex128, 3)
        x = _signal(rng, plan.n)
        want = soi_fft(x, plan)
        assert len(fan_outs) == 2
        del fan_outs[:]

        def body(comm):
            return soi_fft(x, plan)

        res = run_spmd(8, body, engine=engine, timeout=60)
        assert fan_outs == []
        assert all(np.array_equal(y, want) for y in res.values)
        assert len(plan._kernel._slots.queue) == 4

    @pytest.mark.parametrize("engine", ["thread", "des"])
    def test_batched_calls_in_ranks_never_fan_out(self, engine, rng, cpus, fan_outs, monkeypatch):
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        cpus(4)
        plan = _plan(16, Fraction(1, 4), np.complex128, 0.9)
        xb = _signal(rng, (3, plan.n))
        want = soi_fft(xb, plan), soi_ifft(xb, plan)
        assert fan_outs == [3, 3]
        del fan_outs[:]

        def body(comm):
            return soi_fft(xb, plan), soi_ifft(xb, plan)

        res = run_spmd(4, body, engine=engine, timeout=60)
        assert fan_outs == []
        for got in res.values:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert len(plan._kernel._slots.queue) == 4


class TestFailures:
    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_a_failing_unit_reaches_the_caller(self, where, rng, cpus, monkeypatch):
        """A unit that raises — on a helper or on the caller — fails the
        call with that exception, and every workspace comes back."""
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        cpus(3)
        plan = _plan(16, Fraction(1, 4), np.complex128, 6)
        x = _signal(rng, plan.n)
        numpy_be = get_backend("numpy")
        caller = threading.current_thread()

        def fft_tt(xt):
            on_caller = threading.current_thread() is caller
            if on_caller == (where == "caller"):
                raise RuntimeError(f"boom on the {where}")
            if on_caller:
                time.sleep(0.02)   # leave units for the helpers to take
            return numpy_be.fft_tt(xt)

        be = FftBackend("boom", numpy_be.fft, numpy_be.ifft, fft_tt=fft_tt)
        with pytest.raises(RuntimeError, match=f"boom on the {where}"):
            soi_fft(x, plan, be)
        assert len(plan._kernel._slots.queue) == 3
        # The plan still works afterwards, on every CPU.
        assert np.array_equal(soi_fft(x, plan), soi_fft(x, plan, numpy_be))

    @pytest.mark.parametrize("where", ["helper", "caller"])
    @pytest.mark.parametrize("f", [soi_fft, soi_ifft], ids=["soi_fft", "soi_ifft"])
    def test_a_failing_vector_reaches_the_caller(self, f, where, rng, cpus, monkeypatch):
        """The same for a batch whose units are its vectors."""
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        cpus(3)
        plan = _plan(16, Fraction(1, 4), np.complex128, 0.9)
        xb = _signal(rng, (6, plan.n))
        numpy_be = get_backend("numpy")
        caller = threading.current_thread()

        def fft_tt(xt):
            on_caller = threading.current_thread() is caller
            if on_caller == (where == "caller"):
                raise RuntimeError(f"boom on the {where}")
            if on_caller:
                time.sleep(0.02)   # leave vectors for the helpers to take
            return numpy_be.fft_tt(xt)

        be = FftBackend("boom", numpy_be.fft, numpy_be.ifft, fft_tt=fft_tt)
        with pytest.raises(RuntimeError, match=f"boom on the {where}"):
            f(xb, plan, be)
        assert len(plan._kernel._slots.queue) == 3
        assert np.array_equal(f(xb, plan), f(xb, plan, numpy_be))
