"""The fft-p panel stage of the SOI convolution kernel.

``SoiPlan.convolve_fft_p`` runs the length-P column transform on each
panel of convolution output while it is in cache.  It must equal the
staged reference — ``contract_windows_t``, then the plan-precision
column transform of the whole result — bit for bit, whatever the panel
geometry and wherever a caller's chunk range starts.  That holds by
construction because every backend computes each column on its own;
``TestTheFactsTheFusionRestsOn`` re-proves this on the running build.
"""

import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import repro.core.convolve as convolve
import repro.parallel.soi_dist as soi_dist
from repro.core import SoiPlan, TauSigmaWindow, soi_fft, soi_ifft
from repro.core.plan import _plan_fft_tt
from repro.dft.backends import backend_fft_tt, get_backend
from repro.dft.cache import plan_for
from repro.parallel import soi_fft_distributed, split_blocks
from repro.simmpi import run_spmd

WINDOW = TauSigmaWindow(tau=0.93, sigma=412.167)
BACKENDS = ("numpy", "repro")
GRID = [
    pytest.param(p, beta, b, dtype, id=f"P{p}-beta{beta}-B{b}-{np.dtype(dtype).name}")
    for p in (3, 9, 16, 64)
    for beta in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1))
    for b in (2, 78)
    for dtype in (np.complex64, np.complex128)
    if b >= (beta + 1).denominator      # plans need B >= nu
]


def _signal(rng, plan):
    n = plan.n
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(plan.dtype)


def _windows(plan, x):
    return plan.window_view(x, x[: plan.b * plan.p], plan.q_chunks)


def _staged(plan, winb, q0, be):
    """The reference: the whole convolution output, then one transform."""
    z_t = plan.contract_windows_t(winb, q0).reshape(plan.p, -1)
    return _plan_fft_tt(be, z_t, plan)


def _plan_with_steps(p, beta, b, dtype, steps):
    """A plan whose output spans *steps* kernel steps (a float: the last
    step ragged).  Step width depends on (P, beta, B, dtype), not on N."""
    nu = (beta + 1).denominator
    probe = SoiPlan(n=-(-b // nu) * nu * p, p=p, beta=beta, window=WINDOW, b=b, dtype=dtype)
    kernel = probe._convolver()
    chunks = int(steps * kernel.cells * kernel.grid)
    return SoiPlan(n=chunks * nu * p, p=p, beta=beta, window=WINDOW, b=b, dtype=dtype)


class TestFusedEqualsStaged:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("p,beta,b,dtype", GRID)
    def test_one_two_and_ragged_panels(self, p, beta, b, dtype, backend, rng, monkeypatch):
        # One-step panels, so small plans already span several of them.
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        be = get_backend(backend)
        for steps in (1, 2, 2.5):
            plan = _plan_with_steps(p, beta, b, dtype, steps)
            winb = _windows(plan, _signal(rng, plan))
            fused = plan.convolve_fft_p(winb, 0, be)
            kernel = plan._kernel
            assert kernel.p_step == plan.p
            panels = -(-plan.m_over // kernel.panel_cols)
            assert panels == {1: 1, 2: 2, 2.5: 3}[steps]
            assert fused.shape == (plan.p, plan.m_over)
            assert np.array_equal(fused, _staged(plan, winb, 0, be)), steps

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("p,beta,b,dtype", GRID)
    def test_subranges_with_their_true_offset(self, p, beta, b, dtype, backend, rng):
        be = get_backend(backend)
        plan = _plan_with_steps(p, beta, b, dtype, 3.5)
        kernel = plan._convolver()
        step, q, mu = kernel.cells * kernel.grid, plan.q_chunks, plan.mu
        kernel.panel_cols = 2 * step * mu   # panels that fill over two steps
        winb = _windows(plan, _signal(rng, plan))
        full = plan.convolve_fft_p(winb, 0, be)
        cuts = [(1, q), (step // 2, q - 1), (step - 1, 2 * step + 1), (step, 3 * step), (0, step + 1)]
        for q0, q1 in cuts:
            part = plan.convolve_fft_p(winb[q0:q1], q0, be)
            assert np.array_equal(part, full[:, q0 * mu : q1 * mu]), (q0, q1)
            assert np.array_equal(part, _staged(plan, winb[q0:q1], q0, be)), (q0, q1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_default_panels_at_a_ragged_size(self, backend, rng):
        """The shipped panel width (no monkeypatching): 2^18 / 64 spans
        two full panels and a ragged third."""
        be = get_backend(backend)
        plan = SoiPlan(n=1 << 18, p=64)
        winb = _windows(plan, _signal(rng, plan))
        fused = plan.convolve_fft_p(winb, 0, be)
        assert 2 < plan.m_over / plan._kernel.panel_cols < 3
        assert np.array_equal(fused, _staged(plan, winb, 0, be))
        part = plan.convolve_fft_p(winb[37:1001], 37, be)
        assert np.array_equal(part, fused[:, 37 * plan.mu : 1001 * plan.mu])

    def test_split_steps_transform_once_at_the_end(self, rng, monkeypatch):
        """Steps that cover only some of the P columns run inside each
        panel, one column range after another; the panels still get the
        staged bits."""
        monkeypatch.setattr(convolve, "_SCRATCH_BUDGET", 64 << 10)
        plan = SoiPlan(n=16384, p=16)
        winb = _windows(plan, _signal(rng, plan))
        for backend in BACKENDS:
            fused = plan.convolve_fft_p(winb, 0, backend)
            assert plan._kernel.p_step < plan.p
            assert np.array_equal(fused, _staged(plan, winb, 0, get_backend(backend)))

    def test_output_owns_its_memory(self, rng):
        """Nothing returned aliases the pooled panel."""
        plan = SoiPlan(n=1 << 18, p=64)
        x = _signal(rng, plan)
        first = plan.convolve_fft_p(_windows(plan, x), 0)
        keep = first.copy()
        plan.convolve_fft_p(_windows(plan, x[::-1].copy()), 0)
        assert np.array_equal(first, keep)


class TestThreadsSharePanels:
    def test_more_threads_than_workspaces(self, rng, monkeypatch):
        """Panels live in the pooled workspaces: 8 threads under a 10 us
        switch interval each get their own input's bits."""
        monkeypatch.setattr(convolve, "_PANEL_BUDGETS", 0)
        plan = SoiPlan(n=1 << 16, p=16)
        inputs = [_signal(rng, plan) for _ in range(8)]
        want = [_staged(plan, _windows(plan, x), 0, get_backend("numpy")) for x in inputs]
        assert plan.m_over > 4 * plan._kernel.panel_cols
        got: dict[int, list] = {}

        def worker(i):
            got[i] = [plan.convolve_fft_p(_windows(plan, inputs[i])) for _ in range(5)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(8):
            assert all(np.array_equal(v, want[i]) for v in got[i])
        assert len(plan._kernel._slots.queue) == convolve._usable_cpus()


class TestTheFactsTheFusionRestsOn:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("p", [3, 9, 16, 64])
    def test_a_column_slice_gets_the_whole_arrays_bits(self, p, dtype, backend, rng):
        """pocketfft along axis 0 and the engine's column blocks (every P
        here) both transform each column on its own."""
        be = get_backend(backend)
        if dtype == np.complex64 and backend == "repro":
            fft_tt = plan_for(p, precision="single").execute_tt
        else:
            fft_tt = lambda xt: backend_fft_tt(be, xt)  # noqa: E731
        xt = (rng.standard_normal((p, 1500)) + 1j * rng.standard_normal((p, 1500))).astype(dtype)
        full = fft_tt(xt)
        for a, b in [(0, 1), (0, 640), (7, 1500), (320, 960), (1499, 1500)]:
            assert np.array_equal(fft_tt(xt[:, a:b]), full[:, a:b]), (a, b)
            assert np.array_equal(fft_tt(np.ascontiguousarray(xt[:, a:b])), full[:, a:b])

    def test_numpy_in_place_equals_out_of_place(self, rng):
        be = get_backend("numpy")
        if be.fft_into is None:
            pytest.skip("numpy < 2.0: np.fft.fft takes no out=")
        x = rng.standard_normal((64, 5120)) + 1j * rng.standard_normal((64, 5120))
        want = be.fft(x)
        assert be.fft_into(x, x) is x
        assert np.array_equal(x, want)


class TestDistributedTakesThePanelPath:
    @pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_2p20_on_4_ranks_equals_sequential(self, backend, overlap, rng):
        plan = SoiPlan(n=1 << 20, p=64)
        x = _signal(rng, plan)
        seq = soi_fft(x, plan, backend=backend)
        # Each rank block (and each of the two overlap groups) spans
        # more than one panel.
        assert plan._kernel.panel_cols < plan.m_over // 4 // 2
        blocks = split_blocks(x, 4)
        res = run_spmd(
            4,
            lambda comm: soi_fft_distributed(
                comm, blocks[comm.rank], plan, backend=backend, overlap=overlap
            ),
        )
        assert np.array_equal(np.concatenate(res.values), seq)


class TestAllocations:
    def test_warm_2p20_call_holds_one_segment_array(self):
        """A warm ``soi_fft`` allocates the output and one ``(P, M')``
        segments array (fft-m runs in place), never a third."""
        if get_backend("numpy").fft_into is None:
            pytest.skip("numpy < 2.0: fft-m cannot run in place")
        plan = SoiPlan(n=1 << 20, p=64)
        x = np.random.default_rng(0).standard_normal(plan.n).astype(plan.dtype)
        soi_fft(x, plan)
        tracemalloc.start()
        try:
            y = soi_fft(x, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        segments = plan.p * plan.m_over * np.dtype(plan.dtype).itemsize
        assert peak < y.nbytes + 2 * segments, peak

    def test_a_new_context_allocates_no_window_buffer(self, monkeypatch):
        """The convolution reads the caller's vector: a warm 2^20
        ``soi_fft`` or ``soi_ifft`` from a thread that never ran one (a
        context with no pooled buffers) allocates its output, one
        segments array and panel-sized temporaries, and no N-sized copy
        of its input.  One CPU, so no helper adds its own temporaries."""
        if get_backend("numpy").fft_into is None:
            pytest.skip("numpy < 2.0: fft-m cannot run in place")
        monkeypatch.setattr(convolve, "_usable_cpus", lambda: 1)
        plan = SoiPlan(n=1 << 20, p=64)
        x = np.random.default_rng(0).standard_normal(plan.n).astype(plan.dtype)
        soi_fft(x, plan)
        soi_ifft(x, plan)
        peaks = {}

        def run():
            for fn in (soi_fft, soi_ifft):
                tracemalloc.start()
                try:
                    fn(x, plan)
                    peaks[fn.__name__] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        t = threading.Thread(target=run)
        t.start()
        t.join()
        segments = plan.p * plan.m_over * np.dtype(plan.dtype).itemsize
        assert set(peaks) == {"soi_fft", "soi_ifft"}
        for name, peak in peaks.items():
            assert peak < x.nbytes + segments + x.nbytes // 2, (name, peak)

    def test_a_rank_allocates_no_block_plus_halo_copy(self, monkeypatch):
        """A rank's front half allocates its ``(P, rows)`` output and
        panel-sized temporaries: its block and halo are read in place."""
        plan = SoiPlan(n=1 << 20, p=64)
        x = np.random.default_rng(0).standard_normal(plan.n).astype(plan.dtype)
        seen = []
        real = soi_dist._Rank.front_half

        def front_half(self, vec, tail, *args):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            v_t = real(self, vec, tail, *args)
            seen.append((tracemalloc.get_traced_memory()[1] - base, v_t.nbytes, vec.nbytes))
            return v_t

        monkeypatch.setattr(soi_dist._Rank, "front_half", front_half)
        program = lambda comm: soi_fft_distributed(comm, x, plan)  # noqa: E731
        run_spmd(1, program)      # tables and workspaces
        tracemalloc.start()
        try:
            y = run_spmd(1, program).values[0]
        finally:
            tracemalloc.stop()
        assert np.array_equal(y, soi_fft(x, plan))
        peak, out, block = seen[-1]
        assert peak < out + block // 2, (peak, out, block)
