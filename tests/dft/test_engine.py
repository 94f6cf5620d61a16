"""Tests for the GEMM-pass kernel engine behind :class:`FftPlan`.

One engine runs every smooth size, down the columns for short lengths
and along the rows otherwise; Bluestein pads to a smooth length and
runs it too.  The invariants the rest of the stack leans on — a stacked
call is bitwise its rows, column layouts are bitwise the row layout, a
slice of the columns gets the bits the whole array gets — must hold on
*both* sides of that layout rule and at both precisions.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dft import dft, irfft, plan_for, rfft
from repro.dft.bluestein import ChirpZ, _padded_length
from repro.dft.engine import MAX_DENSE_PRIME, MAX_RADIX, radix_schedule
from repro.dft.engine import _SCRATCH_PER_CONTEXT, _scratch_pool
from repro.simmpi import run_spmd
from repro.utils import factorize

PRIMES = [p for p in range(2, MAX_DENSE_PRIME + 1) if factorize(p) == [p]]
MAX_N = 1 << 17
BATCH_SHAPES = [(), (1,), (7,), (3, 5)]
PRECISIONS = {"double": np.complex128, "single": np.complex64}


def tolerance(n, precision):
    eps = np.finfo(np.float32 if precision == "single" else np.float64).eps
    return 16 * eps * max(math.log2(n), 1.0)


def signal(shape, seed, ctype=np.complex128):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(ctype)


def rel_l2(got, ref):
    scale = np.linalg.norm(ref)
    return float(np.linalg.norm(got - ref) / scale) if scale else float(np.linalg.norm(got))


@st.composite
def smooth_sizes(draw):
    """Products of primes <= 61 up to 2^17, plus the SOI 5*2^a family."""
    if draw(st.booleans()):
        return 5 << draw(st.integers(0, 14))
    n = 1
    for p in draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=17)):
        if n * p <= MAX_N:
            n *= p
    return n


def check_against_reference(n, batch, precision, inverse, seed):
    """(a) error within 16 eps log2 n; (b) stacked == each row alone."""
    if n * int(np.prod(batch, dtype=np.int64)) > 1 << 19:
        batch = batch[:0]  # keep the big sizes to one row
    ctype = PRECISIONS[precision]
    plan = plan_for(n, precision=precision)
    x = signal(batch + (n,), seed, ctype)
    got = plan.execute(x, inverse=inverse)
    assert got.dtype == ctype and got.shape == x.shape
    wide = x.astype(np.complex128)
    ref = np.fft.ifft(wide) if inverse else np.fft.fft(wide)
    assert rel_l2(got, ref) <= tolerance(n, precision)
    for idx in np.ndindex(*batch):
        np.testing.assert_array_equal(got[idx], plan.execute(x[idx], inverse=inverse))


class TestRadixSchedule:
    @pytest.mark.parametrize(
        "n, radices",
        [
            (128, (16, 8)),
            (1024, (32, 32)),
            (1 << 16, (16, 16, 16, 16)),
            (1 << 20, (32, 32, 32, 32)),
            (5120, (20, 16, 16)),
            (3000, (20, 15, 10)),
            (8232, (28, 21, 14)),
            (61, (61,)),
            (2 * 61, (61, 2)),
            (16, (16,)),
            (64, (8, 8)),  # the column blocks' two passes
        ],
    )
    def test_known_schedules(self, n, radices):
        assert radix_schedule(n) == radices

    @settings(max_examples=60, deadline=None)
    @given(n=smooth_sizes())
    def test_schedule_is_a_capped_factorisation(self, n):
        radices = radix_schedule(n)
        assert math.prod(radices) == n
        assert list(radices) == sorted(radices, reverse=True)
        for r in radices:
            assert r <= MAX_RADIX or factorize(r) == [r]


class TestAccuracyAndBatchInvariance:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_every_small_size_against_the_naive_dft(self, n):
        """Every length up to 64 runs the column blocks, the dense primes
        37..61 included; rows transpose into them."""
        x = signal(n, seed=n)
        for precision, ctype in PRECISIONS.items():
            got = plan_for(n, precision=precision).execute(x.astype(ctype))
            assert rel_l2(got, dft(x)) <= tolerance(n, precision)

    @settings(max_examples=60, deadline=None)
    @given(
        n=smooth_sizes(),
        batch=st.sampled_from(BATCH_SHAPES),
        precision=st.sampled_from(sorted(PRECISIONS)),
        inverse=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_smooth_sizes_against_numpy(self, n, batch, precision, inverse, seed):
        check_against_reference(n, batch, precision, inverse, seed)

    @pytest.mark.parametrize("n", [16, 64, 96, 128, 1024, 5120, 3000, 4099])
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    @pytest.mark.parametrize("precision", sorted(PRECISIONS))
    def test_named_sizes_both_directions(self, n, batch, precision):
        for inverse in (False, True):
            check_against_reference(n, batch, precision, inverse, seed=n)

    @pytest.mark.parametrize("n", [64, 1024, 5120])
    def test_any_input_layout_or_dtype_is_bitwise_its_rows(self, n):
        plan = plan_for(n)
        x = signal((6, n), seed=3)
        want = plan.execute(x)
        np.testing.assert_array_equal(plan.execute(np.asfortranarray(x)), want)
        strided = np.repeat(x, 2, axis=1)[:, ::2]
        assert not strided.flags.c_contiguous
        np.testing.assert_array_equal(plan.execute(strided), want)
        for cast in (np.int32, np.float32):
            xr = (x.real * 100).astype(cast)
            got = plan.execute(xr)
            for i in range(xr.shape[0]):
                np.testing.assert_array_equal(got[i], plan.execute(xr[i]))
            np.testing.assert_array_equal(got, plan.execute(xr.astype(np.complex128)))


class TestBluesteinAndReal:
    @pytest.mark.parametrize("n, length", [(4099, 8232), (127, 256), (8191, 16384)])
    def test_pads_to_the_smallest_smooth_length(self, n, length):
        assert _padded_length(2 * n - 1) == length
        assert ChirpZ(n, np.complex128).length == length
        assert factorize(length)[-1] <= 7

    @pytest.mark.parametrize("n", [4099, 127, 8191])
    @pytest.mark.parametrize("precision", sorted(PRECISIONS))
    def test_chirp_z_accuracy_and_batch_invariance(self, n, precision):
        plan = plan_for(n, precision=precision)
        assert plan.kernel == "bluestein"
        x = signal((3, n), seed=n, ctype=PRECISIONS[precision])
        wide = x.astype(np.complex128)
        # Three padded transforms and two chirp multiplies per result.
        tol = 4 * tolerance(n, precision)
        for inverse, ref in ((False, np.fft.fft(wide)), (True, np.fft.ifft(wide))):
            got = plan.execute(x, inverse=inverse)
            assert rel_l2(got, ref) <= tol
            for i in range(3):
                np.testing.assert_array_equal(got[i], plan.execute(x[i], inverse=inverse))

    @pytest.mark.parametrize("n", [2, 9, 16, 255, 256, 1000, 4099])
    def test_real_round_trip_odd_and_even(self, n, rng):
        x = rng.standard_normal((2, n))
        spec = rfft(x)
        assert rel_l2(spec, np.fft.rfft(x)) <= tolerance(n, "double")
        back = irfft(spec, n=n)
        assert back.shape == x.shape and back.dtype == np.float64
        np.testing.assert_allclose(back, x, atol=1e-12)


class TestSharedPlanUnderConcurrency:
    SIZES = [96, 128, 640, 1024, 3000, 5120]  # more sizes than pool slots

    def _expected(self):
        xs = {n: signal((3, n), seed=n) for n in self.SIZES}
        return xs, {n: plan_for(n).execute(xs[n]) for n in self.SIZES}

    def test_threads_under_a_short_switch_interval(self):
        xs, want = self._expected()
        failures = []

        def worker(k):
            try:
                for rep in range(6):
                    for n in self.SIZES[k % 3 :] + self.SIZES[: k % 3]:
                        if not np.array_equal(plan_for(n).execute(xs[n]), want[n]):
                            failures.append((k, rep, n))
                if len(_scratch_pool()) > _SCRATCH_PER_CONTEXT:
                    failures.append((k, "scratch pool grew", len(_scratch_pool())))
            except Exception as exc:  # surfaced below, not swallowed
                failures.append((k, repr(exc)))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_recycled_des_contexts(self):
        xs, want = self._expected()

        def program(comm):
            for n in self.SIZES:
                assert np.array_equal(plan_for(n).execute(xs[n]), want[n])
            assert len(_scratch_pool()) <= _SCRATCH_PER_CONTEXT
            return threading.get_ident()

        res = run_spmd(32, program, engine="des")
        assert len(set(res.values)) < 32  # vessels were recycled across ranks


class TestBoundaryBehaviour:
    @pytest.mark.parametrize("n", [16, 1024, 5120, 127])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_propagates_without_raising(self, n, bad):
        x = signal((2, n), seed=1)
        x[1, n // 3] = bad
        with np.errstate(all="ignore"):
            out = plan_for(n).execute(x)
        assert not np.isfinite(out[1]).all()
        np.testing.assert_array_equal(out[0], plan_for(n).execute(x[0]))

    @pytest.mark.parametrize("n", [16, 1024, 5120, 127])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_input_untouched_and_result_not_pooled_scratch(self, n, inverse):
        plan = plan_for(n)
        x = signal((3, n), seed=2)
        before = x.copy()
        first = plan.execute(x, inverse=inverse)
        snapshot = first.copy()
        np.testing.assert_array_equal(x, before)
        # A later same-shape call reuses every pooled buffer: a result
        # aliasing one of them would change under our feet.
        plan.execute(signal((3, n), seed=4), inverse=inverse)
        np.testing.assert_array_equal(first, snapshot)
        assert not any(np.shares_memory(first, buf) for buf in _scratch_pool().values())


class TestLayoutsAgree:
    @pytest.mark.parametrize("n", [12, 16, 64, 128, 5120])
    @pytest.mark.parametrize("precision", sorted(PRECISIONS))
    def test_column_layouts_are_the_row_layout(self, n, precision):
        plan = plan_for(n, precision=precision)
        x = signal((9, n), seed=n, ctype=PRECISIONS[precision])
        rows = plan.execute(x)
        xt = np.ascontiguousarray(x.T)
        tt = plan.execute_tt(xt)
        assert tt.flags.c_contiguous
        np.testing.assert_array_equal(tt, plan.execute(xt.T).T)
        np.testing.assert_array_equal(tt, rows.T)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([12, 16, 64, 128, 5120]),
        precision=st.sampled_from(sorted(PRECISIONS)),
        cut=st.tuples(st.integers(0, 39), st.integers(0, 39)).filter(lambda c: c[0] != c[1]),
    )
    def test_a_slice_of_the_columns_gets_the_whole_arrays_bits(self, n, precision, cut):
        """The rank-versus-sequential property: a rank transforms its
        M'/R columns, the sequential call all M' of them."""
        a, b = sorted(cut)
        plan = plan_for(n, precision=precision)
        xt = signal((n, 40), seed=n, ctype=PRECISIONS[precision])
        np.testing.assert_array_equal(
            plan.execute_tt(xt[:, a:b]), plan.execute_tt(xt)[:, a:b]
        )
