"""Tests for the global FFT plan cache: identity, LRU, thread safety.

Thread safety matters because :func:`repro.simmpi.run_spmd` ranks are
threads — a distributed SOI FFT has every rank hammering ``plan_for``
concurrently, and the cache must hand them all the *same* plan object
with consistent counters.
"""

import numpy as np
import pytest

from repro.dft import (
    FftPlan,
    clear_plan_cache,
    fft,
    ifft,
    plan_cache_info,
    plan_for,
    warm_plan_cache,
)
from repro.dft import cache
from repro.simmpi import run_spmd


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestCacheBasics:
    def test_same_size_returns_same_object(self):
        assert plan_for(256) is plan_for(256)

    def test_hit_miss_counters(self):
        plan_for(64)
        plan_for(64)
        plan_for(128)
        info = plan_cache_info()
        assert info["entries"] == 2
        assert info["misses"] == 2
        assert info["hits"] == 1
        assert info["evictions"] == 0

    def test_lru_eviction_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(cache, "_MAX_PLANS", 2)
        first = plan_for(8)
        plan_for(16)
        plan_for(32)  # evicts the length-8 plan
        info = plan_cache_info()
        assert info["entries"] == 2
        assert info["evictions"] == 1
        assert info["max_plans"] == 2
        assert plan_for(8) is not first  # rebuilt after eviction

    def test_clear_resets_counters(self):
        plan_for(64)
        clear_plan_cache()
        info = plan_cache_info()
        assert info["entries"] == 0
        assert info["hits"] == 0
        assert info["misses"] == 0
        assert info["evictions"] == 0


class TestCachedOutputs:
    @pytest.mark.parametrize("n", [64, 360, 97])
    def test_cached_forward_bit_identical_to_fresh_plan(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_array_equal(fft(x), FftPlan(n).execute(x, inverse=False))

    @pytest.mark.parametrize("n", [64, 360, 97])
    def test_cached_inverse_bit_identical_to_fresh_plan(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_array_equal(ifft(x), FftPlan(n).execute(x, inverse=True))

    def test_one_shot_helpers_populate_the_cache(self, rng):
        x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        fft(x)
        ifft(x)  # same plan serves both directions
        info = plan_cache_info()
        assert info["entries"] == 1
        assert info["misses"] == 1
        assert info["hits"] == 1


class TestDtypeKeying:
    """Same N, different caller dtype/layout: one sound shared plan.

    Regression guard for the cache-key collision class: the key used to
    be the bare length, so nothing *stated* that a plan built for one
    dtype was safe for another.  The key now carries the normalised
    compute dtype and the plan casts at its boundary — mixed-dtype
    callers share one plan by construction, bit-identically.
    """

    DTYPES = [np.float32, np.float64, np.complex64, np.complex128, np.int32]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_all_numeric_dtypes_share_one_plan(self, dtype):
        assert plan_for(64, dtype) is plan_for(64, np.complex128)
        assert plan_cache_info()["entries"] == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    @pytest.mark.parametrize("n", [64, 360, 97])
    def test_low_precision_input_bit_identical_to_promoted(self, dtype, n, rng):
        """A float32/complex64 caller must execute the identical
        complex128 kernel as if it had promoted its input itself."""
        if np.dtype(dtype).kind == "f":
            x = rng.standard_normal(n).astype(dtype)
        else:
            x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(dtype)
        out = fft(x)
        promoted = FftPlan(n).execute(x.astype(np.complex128), inverse=False)
        assert out.dtype == np.complex128
        np.testing.assert_array_equal(out, promoted)

    def test_fortran_ordered_and_strided_inputs(self, rng):
        xb = rng.standard_normal((4, 128)) + 1j * rng.standard_normal((4, 128))
        expected = FftPlan(128).execute(xb, inverse=False)
        np.testing.assert_array_equal(fft(np.asfortranarray(xb)), expected)
        strided = np.ascontiguousarray(
            np.repeat(xb, 2, axis=1)
        )[:, ::2]  # non-contiguous view with the same values
        np.testing.assert_array_equal(fft(strided), expected)

    def test_interleaved_dtypes_do_not_corrupt_each_other(self, rng):
        x64 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        x32 = x64.astype(np.complex64)
        ref64 = FftPlan(128).execute(x64, inverse=False)
        ref32 = FftPlan(128).execute(x32.astype(np.complex128), inverse=False)
        for _ in range(3):  # alternate through the one shared entry
            np.testing.assert_array_equal(fft(x64), ref64)
            np.testing.assert_array_equal(fft(x32), ref32)
        assert plan_cache_info()["entries"] == 1

    def test_non_numeric_dtype_rejected(self):
        with pytest.raises(TypeError, match="dtype"):
            plan_for(64, np.dtype("U8"))

    @pytest.mark.parametrize("n", [2.5, True, "8", None, np.float64(8.0)])
    def test_non_integer_length_rejected(self, n):
        """The cache key used to be ``int(n)``: 2.5 planned length 2,
        True length 1 and "8" length 8 before validation ever ran."""
        with pytest.raises(TypeError, match="n must be an integer"):
            plan_for(n)
        assert plan_cache_info()["entries"] == 0

    @pytest.mark.parametrize("n", [0, -4])
    def test_non_positive_length_rejected(self, n):
        with pytest.raises(ValueError, match="positive"):
            plan_for(n)

    def test_numpy_integer_length_shares_the_python_int_entry(self):
        assert plan_for(np.int64(64)) is plan_for(64)


class TestWarmupPersistence:
    """Server-start warmup: explicit shapes and the persisted shape list."""

    def test_warm_plan_cache_counts_built_vs_already(self):
        out = warm_plan_cache([64, (128, np.float32), 64])
        assert out == {"requested": 3, "built": 2, "already": 1}
        info = plan_cache_info()
        assert info["entries"] == 2

    def test_warmed_shapes_serve_hits(self):
        warm_plan_cache([64])
        before = plan_cache_info()
        plan_for(64)
        after = plan_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

class TestThreadSafety:
    SIZES = [32, 64, 128, 256]

    def test_concurrent_ranks_share_plan_objects(self):
        nranks = 8

        def body(comm):
            # Every rank requests every size, overlapping deliberately.
            return [id(plan_for(n)) for n in self.SIZES for _ in range(16)]

        results = run_spmd(nranks, body).values
        for per_size in zip(*results):
            assert len(set(per_size)) == 1  # one shared object per size

    def test_concurrent_counters_are_consistent(self):
        nranks = 8
        repeats = 16

        def body(comm):
            for n in self.SIZES:
                for _ in range(repeats):
                    plan_for(n)
            return comm.rank

        run_spmd(nranks, body)
        info = plan_cache_info()
        assert info["entries"] == len(self.SIZES)
        assert info["misses"] == len(self.SIZES)  # each size built exactly once
        assert info["hits"] == nranks * repeats * len(self.SIZES) - info["misses"]

    def test_concurrent_outputs_bit_identical_to_uncached(self, rng):
        xs = {
            n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for n in self.SIZES
        }
        expected = {n: FftPlan(n).execute(x, inverse=False) for n, x in xs.items()}

        def body(comm):
            return {n: fft(xs[n]) for n in self.SIZES}

        for per_rank in run_spmd(8, body).values:
            for n in self.SIZES:
                np.testing.assert_array_equal(per_rank[n], expected[n])


class TestEvictionUnderConcurrency:
    """A one-plan LRU bound *while* P=4 ranks execute transforms.

    The worst case for the LRU: a bound of one entry with four sizes in
    flight means nearly every lookup evicts what another rank just
    built.  The cache must neither deadlock nor change a single output
    bit — evictions may only ever cost rebuild time.
    """

    SIZES = [32, 64, 128, 256]
    NRANKS = 4

    def test_limit_thrash_is_deadlock_free_and_bitwise_stable(self, monkeypatch):
        monkeypatch.setattr(cache, "_MAX_PLANS", 1)
        for seed in range(10):
            gen = np.random.default_rng(1000 + seed)
            xs = {
                n: gen.standard_normal(n) + 1j * gen.standard_normal(n)
                for n in self.SIZES
            }
            expected = {
                n: FftPlan(n).execute(x, inverse=False) for n, x in xs.items()
            }

            def body(comm, gen=gen):
                order = list(self.SIZES)
                np.random.default_rng(seed * 31 + comm.rank).shuffle(order)
                out = {}
                for _ in range(4):
                    for n in order:
                        out[n] = fft(xs[n])
                return out

            res = run_spmd(self.NRANKS, body, timeout=30)
            for per_rank in res.values:
                for n in self.SIZES:
                    np.testing.assert_array_equal(per_rank[n], expected[n])
            info = plan_cache_info()
            assert info["entries"] <= len(self.SIZES)
            assert info["evictions"] > 0  # the thrash actually thrashed
