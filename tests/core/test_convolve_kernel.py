"""The SOI convolution kernel (:mod:`repro.core.convolve`).

The kernel's contract, stated once here and relied on by every
seq == dist / overlap / resilience bitwise test elsewhere:

(a) any chunk sub-range, given its true global offset, is bit-for-bit
    the same slice of the full result — whatever the plan geometry;
(b) the result is ``W x`` to a tolerance calibrated from the dtype and
    the stencil width;
(c) the real table times the phase is the plan's coefficient tensor;
(d) callers sharing one plan share nothing else;
(e) non-finite input comes back non-finite, never an exception.
"""

import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import repro.core.convolve as convolve
from repro.core import SoiPlan, TauSigmaWindow, soi_convolve, soi_fft, soi_plan_cache_info
from repro.core import clear_soi_plan_cache, error_budget, soi_plan_for
from repro.core.matrices import dense_w_matrix
from repro.exectx import reset_execution_context, set_execution_context
from repro.parallel import soi_fft_distributed
from repro.simmpi import run_spmd

# The kernel never looks at what the window is, only at (B, nu, mu, P):
# a bare window skips the design search for the off-preset betas.
WINDOW = TauSigmaWindow(tau=0.93, sigma=412.167)
BETAS = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)]


def _minimal_plan(p, beta, b, dtype):
    """The smallest N this (P, beta, B) admits: M = B rounded up to nu."""
    nu = (beta + 1).denominator
    m = -(-b // nu) * nu
    return SoiPlan(n=m * p, p=p, beta=beta, window=WINDOW, b=b, dtype=dtype)


GRID = [
    pytest.param(p, beta, b, dtype, id=f"P{p}-beta{beta}-B{b}-{np.dtype(dtype).name}")
    for p in (3, 9, 16, 64)
    for beta in BETAS
    for b in (2, 78)
    for dtype in (np.complex64, np.complex128)
    if b >= (beta + 1).denominator      # plans need B >= nu
]


def _signal(rng, plan):
    n = plan.n
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(plan.dtype)


def _windows(plan, x):
    return plan.window_view(x, x[: plan.b * plan.p], plan.q_chunks)


def _tolerance(plan):
    """``4 * eps * sqrt(B)``: B-term sums in two different orders."""
    real = np.float32 if plan.dtype == np.complex64 else np.float64
    return 4 * np.finfo(real).eps * np.sqrt(plan.b)


def _subranges(q):
    """Every ``[q0, q1)`` for small q; for larger q every start and every
    end, paired with spans that straddle the power-of-two tile grids."""
    if q <= 20:
        return [(a, b) for a in range(q) for b in range(a + 1, q + 1)]
    spans = sorted({1, 2, 7, 8, 9, 31, 32, 33, 64, q // 2, q - 1, q})
    pairs = {(a, min(a + s, q)) for a in range(q) for s in spans}
    pairs |= {(max(b - s, 0), b) for b in range(1, q + 1) for s in spans}
    return sorted(pairs)


class TestSubrangesAreBitwiseSlices:
    @pytest.mark.parametrize("p,beta,b,dtype", GRID)
    def test_every_subrange_with_its_offset(self, p, beta, b, dtype, rng):
        plan = _minimal_plan(p, beta, b, dtype)
        winb = _windows(plan, _signal(rng, plan))
        full = plan.contract_windows_t(winb)
        assert full.shape == (plan.p, plan.q_chunks, plan.mu)
        for q0, q1 in _subranges(plan.q_chunks):
            part = plan.contract_windows_t(winb[q0:q1], q0)
            assert np.array_equal(part, full[:, q0:q1]), (q0, q1)

    @pytest.mark.parametrize("n,p", [(15120, 9), (16 * 4 * 300, 16)])
    def test_rank_blocks_and_arbitrary_slices_of_longer_plans(self, n, p, rng):
        plan = SoiPlan(n=n, p=p)
        winb = _windows(plan, _signal(rng, plan))
        full = plan.contract_windows_t(winb)
        q = plan.q_chunks
        cuts = [(r * q // k, (r + 1) * q // k) for k in (2, 3, 7, 64) for r in range(k)]
        cuts += [tuple(sorted(rng.choice(q + 1, 2, replace=False))) for _ in range(40)]
        for q0, q1 in cuts:
            if q1 > q0:
                part = plan.contract_windows_t(winb[q0:q1], q0)
                assert np.array_equal(part, full[:, q0:q1]), (q0, q1)

    def test_step_shape_does_not_change_the_bits(self, rng, monkeypatch):
        """Scratch budget only regroups (p, cell) GEMMs into steps."""
        x = _signal(rng, SoiPlan(n=16384, p=16))
        plans = {}
        for budget in (convolve._SCRATCH_BUDGET, 64 << 10):
            monkeypatch.setattr(convolve, "_SCRATCH_BUDGET", budget)
            plans[budget] = plan = SoiPlan(n=16384, p=16)
            plans[budget, "z"] = plan.contract_windows_t(_windows(plan, x))
        small = plans[64 << 10]._kernel
        assert small.cells == 1 and small.p_step < 16   # both loops really run
        assert np.array_equal(plans[64 << 10, "z"], plans[convolve._SCRATCH_BUDGET, "z"])
        winb = _windows(plans[64 << 10], x)
        for q0, q1 in [(0, 5), (31, 33), (100, 256), (37, 201)]:
            part = plans[64 << 10].contract_windows_t(winb[q0:q1], q0)
            assert np.array_equal(part, plans[64 << 10, "z"][:, q0:q1])

    def test_rejects_arrays_that_are_not_window_views(self, full_plan, rng):
        plan = full_plan
        winb = _windows(plan, _signal(rng, plan))
        with pytest.raises(ValueError, match="window_view"):
            plan.contract_windows_t(np.ascontiguousarray(winb[:4]))
        with pytest.raises(ValueError, match="window_view"):
            plan.contract_windows_t(winb[::2])


class TestMatchesDenseW:
    @pytest.mark.parametrize("p,beta,b,dtype", GRID)
    def test_within_calibrated_tolerance(self, p, beta, b, dtype, rng):
        plan = _minimal_plan(p, beta, b, dtype)
        x = _signal(rng, plan)
        z = soi_convolve(x, plan)
        if p <= 16:
            ref = dense_w_matrix(plan) @ x.astype(np.complex128)
        else:  # dense W is 0.5 GB here: the same sums as one einsum
            xe = np.concatenate([x, x[: plan.b * plan.p]]).astype(np.complex128)
            idx = (
                np.arange(plan.q_chunks)[:, None] * plan.nu * plan.p
                + np.arange(plan.b * plan.p)[None, :]
            )
            win = xe[idx].reshape(plan.q_chunks, plan.b, plan.p)
            ref = np.einsum("rbp,qbp->qrp", plan.coeffs.astype(np.complex128), win)
        ref = ref.reshape(plan.m_over, plan.p)
        assert z.dtype == plan.dtype
        assert np.linalg.norm(z - ref) <= _tolerance(plan) * np.linalg.norm(ref)

    def test_transposed_and_batched_forms_are_the_same_bits(self, full_plan, rng):
        plan = full_plan
        xb = np.stack([_signal(rng, plan) for _ in range(3)])
        zb = soi_convolve(xb, plan)
        for i in range(3):
            z_t = plan.contract_windows_t(_windows(plan, xb[i]))
            assert np.array_equal(zb[i], z_t.reshape(plan.p, plan.m_over).T)


class TestCoefficientFactorisation:
    @pytest.mark.parametrize("p,beta,b,dtype", GRID)
    def test_real_table_times_phase_is_coeffs_to_one_ulp(self, p, beta, b, dtype):
        plan = _minimal_plan(p, beta, b, dtype)
        real = np.float32 if plan.dtype == np.complex64 else np.float64
        assert plan.coeffs_real.dtype == real and plan.coeffs_real.shape == plan.coeffs.shape
        assert plan.coeffs_phase.dtype == plan.dtype
        assert plan.coeffs_phase.shape == (plan.mu, plan.p)
        np.testing.assert_allclose(np.abs(plan.coeffs_phase), 1.0, rtol=4 * np.finfo(real).eps)
        exact = plan.coeffs_real.astype(np.float64) * plan.coeffs_phase.astype(
            np.complex128
        )[:, None, :]
        for part in ("real", "imag"):
            got = getattr(plan.coeffs, part).astype(np.float64)
            want = getattr(exact, part)
            ulp = np.spacing(np.abs(want).astype(real)).astype(np.float64)
            assert np.all(np.abs(got - want) <= ulp)

    def test_banded_table_is_the_real_table_on_its_band(self, full_plan):
        plan = full_plan
        plan.contract_windows_t(_windows(plan, np.zeros(plan.n, dtype=plan.dtype)))
        k = plan._kernel
        assert k.tile_k == (k.group - 1) * plan.nu + plan.b
        for i in range(k.group):
            block = k.banded[:, i * plan.nu : i * plan.nu + plan.b, i * plan.mu : (i + 1) * plan.mu]
            assert np.array_equal(block, plan.coeffs_real.transpose(2, 1, 0))
        assert np.count_nonzero(k.banded) <= k.group * plan.coeffs_real.size

    def test_degenerate_stencil_is_one_unbanded_product(self):
        plan = SoiPlan(n=64 * 64, p=64, beta=1, window=WINDOW, b=2)
        plan.contract_windows_t(_windows(plan, np.zeros(plan.n, dtype=plan.dtype)))
        k = plan._kernel
        assert (k.group, k.tile_k, k.tile_n) == (1, plan.b, plan.mu)
        assert k.grid == convolve._TILE_ROWS


class TestTablesAreLazyAndAccounted:
    def test_kernel_table_is_built_by_the_first_contraction_only(self, rng):
        plan = SoiPlan(n=4096, p=8)
        before = plan.table_bytes
        error_budget(plan)
        plan.describe()
        assert plan._kernel is None and "not built" in plan.describe()
        soi_fft(_signal(rng, plan), plan)
        k = plan._kernel
        assert plan.table_bytes == before + k.banded.nbytes + k.phase.nbytes
        assert "not built" not in plan.describe()

    def test_plan_cache_reports_table_bytes(self, rng):
        clear_soi_plan_cache()
        try:
            assert soi_plan_cache_info()["table_bytes"] == 0
            plan = soi_plan_for(4096, 8)
            cold = soi_plan_cache_info()["table_bytes"]
            assert cold == plan.table_bytes > 0
            soi_fft(_signal(rng, plan), plan)
            assert soi_plan_cache_info()["table_bytes"] == plan.table_bytes > cold
        finally:
            clear_soi_plan_cache()


class TestSharedPlanIsolation:
    def test_threads_and_recycled_contexts_share_one_plan(self, rng):
        plan = SoiPlan(n=8192, p=8)
        inputs = [_signal(rng, plan) for _ in range(8)]
        want = [plan.contract_windows_t(_windows(plan, x)) for x in inputs]
        got: dict[int, list] = {}

        def worker(i):
            got[i] = [plan.contract_windows_t(_windows(plan, inputs[i])) for _ in range(10)]

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
            assert all(np.array_equal(z, want[i]) for z in got[i])

        # One OS thread standing in for two successive DES ranks.
        prev = set_execution_context(("world", -7, 0))
        try:
            first = plan.contract_windows_t(_windows(plan, inputs[0]))
            set_execution_context(("world", -7, 1))
            second = plan.contract_windows_t(_windows(plan, inputs[1]))
        finally:
            reset_execution_context(prev)
        assert np.array_equal(first, want[0]) and np.array_equal(second, want[1])

        slots = list(plan._kernel._slots.queue)
        built = sum(ws is not None for ws in slots)
        assert len(slots) == convolve._usable_cpus()   # every slot came back
        assert 1 <= built <= min(8, len(slots))

    def test_des_ranks_on_recycled_threads_match_the_sequential_bits(self, rng):
        plan = SoiPlan(n=4096, p=8)
        x = _signal(rng, plan)
        want = soi_fft(x, plan)

        def program(comm):
            return soi_fft(x, plan)     # communication-free: vessels get recycled

        res = run_spmd(16, program, engine="des", timeout=60)
        assert all(np.array_equal(y, want) for y in res.values)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 1000, 4095])
    def test_poisons_the_output_identically_seq_and_dist(self, bad, where, rng):
        plan = SoiPlan(n=4096, p=8)
        x = _signal(rng, plan)
        x[where] = bad
        with np.errstate(all="ignore"):
            seq = soi_fft(x, plan)

            def program(comm):
                block = plan.n // comm.size
                return soi_fft_distributed(
                    comm, x[comm.rank * block : (comm.rank + 1) * block], plan
                )

            dist = np.concatenate(run_spmd(4, program, timeout=60).values)
        # Every output depends on every z column the sample feeds, so
        # both come back non-finite everywhere.
        assert not np.isfinite(seq).any()
        assert not np.isfinite(dist).any()


# ---------------------------------------------------------------------------
# The kernel's input contract: C-ordered (rows, P) body and tail, the
# chunks' rows read across them, cells anchored on the global grid.
# ---------------------------------------------------------------------------

#: 421 chunks: three grid cells of 128 and a ragged 37.
CONTRACT_N, CONTRACT_P = 421 * 4 * 9, 9


@pytest.fixture(params=[
    pytest.param((np.complex128, None), id="complex128"),
    pytest.param((np.complex64, None), id="complex64"),
    pytest.param((np.complex128, 8 << 10), id="complex128-p_step<P"),
])
def contract(request, monkeypatch):
    """``(plan, x, rows, ext)``: a signal as kernel rows and as its
    extended rows (``rows ++ rows[:B]``) on the contract plan."""
    dtype, budget = request.param
    if budget is not None:
        monkeypatch.setattr(convolve, "_SCRATCH_BUDGET", budget)
    plan = SoiPlan(n=CONTRACT_N, p=CONTRACT_P, window=WINDOW, b=78, dtype=dtype)
    kernel = plan._convolver()
    assert (kernel.p_step < plan.p) == (budget is not None)
    x = _signal(np.random.default_rng(7), plan)
    rows = x.reshape(plan.m, plan.p)
    return plan, x, rows, np.concatenate([rows, rows[: plan.b]])


def _forms(plan, rows, ext, q0, q1):
    """The (body, tail) pairs a call over chunks [q0, q1) may be given:
    the sequential body and wrap, a rank's block and halo, and a tail
    that holds all but one row."""
    nu, b = plan.nu, plan.b
    end = (q1 - 1) * nu + b
    return {
        "wrap": (rows[q0 * nu :], rows[:b]),
        "halo": (ext[q0 * nu : q1 * nu], ext[q1 * nu : end]),
        "tail": (ext[q0 * nu : q0 * nu + 1], ext[q0 * nu + 1 : end]),
    }


class TestInputContract:
    def test_every_grid_offset_at_both_ends(self, contract):
        plan, x, rows, ext = contract
        kernel, q = plan._kernel, plan.q_chunks
        full = kernel(rows, rows[: plan.b], q, 0)
        assert np.array_equal(full, plan.contract_windows_t(_windows(plan, x)).reshape(plan.p, -1))
        spans = set()
        for r in range(kernel.grid):
            spans |= {(r, q), (0, q - r), (r, r + kernel.grid + 1), (r, r + 1)}
        for q0, q1 in sorted(spans):
            want = full[:, q0 * plan.mu : q1 * plan.mu]
            for form, (body, tail) in _forms(plan, rows, ext, q0, q1).items():
                got = kernel(body, tail, q1 - q0, q0)
                assert np.array_equal(got, want), (form, q0, q1)

    def test_bands_crossing_into_the_wrap_and_the_halo(self, contract):
        """Ranks whose blocks end anywhere on the grid: the halo cells
        (and the sequential wrap) go through the stitch buffer."""
        plan, x, rows, ext = contract
        kernel, q, mu = plan._kernel, plan.q_chunks, plan.mu
        fft_p = plan._fft_p("numpy")
        full = kernel(rows, rows[: plan.b], q, 0, fft_p)
        for ranks in (2, 3, 5):
            cuts = [r * q // ranks for r in range(ranks + 1)]
            for q0, q1 in zip(cuts[:-1], cuts[1:]):
                body, halo = _forms(plan, rows, ext, q0, q1)["halo"]
                assert body.shape[0] * plan.p < (q1 - q0 - 1) * plan.nu * plan.p + plan.b * plan.p
                got = kernel(body, halo, q1 - q0, q0, fft_p)
                assert np.array_equal(got, full[:, q0 * mu : q1 * mu]), (ranks, q0)

    def test_conjugating_gather(self, contract):
        plan, x, rows, ext = contract
        kernel, q = plan._kernel, plan.q_chunks
        crows = np.conj(rows)
        cext = np.concatenate([crows, crows[: plan.b]])
        for q0, q1 in [(0, q), (5, q), (0, 130), (127, 300), (200, 201)]:
            for form, (body, tail) in _forms(plan, rows, ext, q0, q1).items():
                cbody, ctail = _forms(plan, crows, cext, q0, q1)[form]
                want = kernel(cbody, ctail, q1 - q0, q0)
                got = kernel(body, tail, q1 - q0, q0, conj=True)
                assert np.array_equal(got, want), (form, q0, q1)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_poisons_exactly_the_groups_whose_window_holds_it(self, contract):
        """Only column p of the groups whose K-row window (clipped to the
        rows the call's chunks read) holds the bad row, wrap included."""
        plan, x, rows, ext = contract
        kernel, q, nu, mu, g = plan._kernel, plan.q_chunks, plan.nu, plan.mu, plan._kernel.group
        for bad_row, bad_p in [(0, 3), (500, 0), (plan.m - 1, 8), (40, 5)]:
            poisoned = rows.copy()
            poisoned[bad_row, bad_p] = np.nan
            pext = np.concatenate([poisoned, poisoned[: plan.b]])
            bad = {bad_row} | ({bad_row + plan.m} if bad_row < plan.b else set())
            for q0, q1 in [(0, q), (1, q), (100, 260), (0, 64), (380, q)]:
                hi_row = (q1 - 1) * nu + plan.b
                want = np.zeros((plan.p, q1 - q0), dtype=bool)
                for c in range(q0, q1):
                    lo = c // g * g * nu
                    seen = range(max(lo, q0 * nu), min(lo + kernel.tile_k, hi_row))
                    want[bad_p, c - q0] = any(r in seen for r in bad)
                want = np.repeat(want, mu, axis=1)
                with np.errstate(invalid="ignore"):
                    for form, (body, tail) in _forms(plan, poisoned, pext, q0, q1).items():
                        got = kernel(body, tail, q1 - q0, q0)
                        assert np.array_equal(~np.isfinite(got), want), (form, bad_row, q0, q1)

    def test_short_or_misstrided_rows_raise_naming_the_argument(self, full_plan):
        plan = full_plan
        kernel = plan._convolver()
        rows = _signal(np.random.default_rng(0), plan).reshape(plan.m, plan.p)
        q, b = plan.q_chunks, plan.b
        bad = {
            "body": [rows[::2], rows[:, :-1], rows.astype(np.complex64), rows.ravel(),
                     np.asfortranarray(rows), rows.T],
            "tail": [rows[:b:2], rows[:b, 1:], rows[:b].ravel(), rows[:b].real],
        }
        for name, cases in bad.items():
            for case in cases:
                args = (case, rows[:b]) if name == "body" else (rows, case)
                with pytest.raises(ValueError, match=f"^{name} "):
                    kernel(*args, q, 0)
        with pytest.raises(ValueError, match="body .* tail .* short"):
            kernel(rows, rows[: b - plan.nu - 1], q, 0)
        with pytest.raises(ValueError, match="body .* tail .* short"):
            kernel(rows[:10], rows[:b], q, 0)
        with pytest.raises(ValueError, match="short"):
            kernel(rows, rows[:b], 0, 0)
        # Exactly enough rows is enough.
        assert kernel(rows, rows[: b - plan.nu], q, 0).shape == (plan.p, plan.m_over)
