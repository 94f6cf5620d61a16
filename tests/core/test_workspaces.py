"""Tests for the precomputed SOI workspaces and the SOI plan cache.

The workspaces (the convolution kernel's tables and scratch, the
per-context extended-input buffer, reciprocal demodulation, segment
phase tables) are pure caching: every test here pins the invariant that
they change *where* numbers come from, never the numbers themselves —
including across the sequential/distributed split, the reliable
transport and the ``trace=`` instrumentation path.
"""

import numpy as np
import pytest

from repro.core import (
    SoiPlan,
    clear_soi_plan_cache,
    soi_plan_cache_info,
    soi_plan_for,
)
from repro.core.soi import soi_convolve, soi_fft, soi_ifft
from repro.simmpi import TransportPolicy
from repro.trace import TraceRecorder


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _generic_convolve(x, plan):
    """Reference construction: explicit extension, window view and one
    complex einsum over ``plan.coeffs`` (a different summation order
    from the kernel's real GEMMs, so agreement is to rounding)."""
    xe = np.concatenate([x, x[..., : plan.b * plan.p]], axis=-1)
    stride = plan.nu * plan.p
    win = np.lib.stride_tricks.sliding_window_view(xe, plan.b * plan.p, axis=-1)[
        ..., ::stride, :
    ][..., : plan.q_chunks, :]
    winb = win.reshape(*xe.shape[:-1], plan.q_chunks, plan.b, plan.p)
    z = np.einsum("rbp,...qbp->...qrp", plan.coeffs, winb, optimize=True)
    return z.reshape(*xe.shape[:-1], plan.m_over, plan.p)


class TestConvolutionWorkspaces:
    def test_window_view_matches_generic_construction(self, full_plan, rng):
        x = _complex(rng, full_plan.n)
        z, ref = soi_convolve(x, full_plan), _generic_convolve(x, full_plan)
        # Two B-term sums in different orders: 4 * eps * sqrt(B) * ||z||
        # (the tolerance tests/core/test_convolve_kernel.py calibrates
        # against the dense W).
        tol = 4 * np.finfo(np.float64).eps * np.sqrt(full_plan.b)
        assert np.linalg.norm(z - ref) <= tol * np.linalg.norm(ref)

    def test_contract_windows_t_is_bitwise_transpose(self, full_plan, rng):
        plan = full_plan
        x = np.ascontiguousarray(_complex(rng, plan.n))
        z = soi_convolve(x, plan)
        winb = plan.window_view(x, x[: plan.b * plan.p], plan.q_chunks)
        z_t = plan.contract_windows_t(winb).reshape(plan.p, plan.m_over)
        np.testing.assert_array_equal(z_t, np.ascontiguousarray(z.T))

    def test_window_buffer_reused_per_thread(self, full_plan, rng):
        plan = full_plan
        x = np.ascontiguousarray(_complex(rng, plan.n))
        plan.window_view(x, x[: plan.b * plan.p], plan.q_chunks)
        # The slot is (execution context, pool): keyed on rank identity
        # inside SPMD worlds, thread identity outside.
        buf_a = plan._tls.xe[1][plan.n + plan.b * plan.p]
        plan.window_view(x, x[: plan.b * plan.p], plan.q_chunks)
        assert plan._tls.xe[1][plan.n + plan.b * plan.p] is buf_a

    def test_batched_rows_match_one_d_path(self, full_plan, rng):
        xb = _complex(rng, (3, full_plan.n))
        for backend in ("numpy", "repro"):
            batched = soi_fft(xb, full_plan, backend=backend)
            rows = np.stack(
                [soi_fft(xb[i], full_plan, backend=backend) for i in range(3)]
            )
            np.testing.assert_array_equal(batched, rows)


class TestDemodAndPhases:
    def test_demod_recip_is_reciprocal_of_demod(self, full_plan):
        np.testing.assert_array_equal(
            full_plan.demod_recip, np.reciprocal(full_plan.demod)
        )
        np.testing.assert_allclose(
            full_plan.demod * full_plan.demod_recip, 1.0, rtol=1e-15
        )
        assert not full_plan.demod_recip.flags.writeable

    def test_segment_phase_cached_and_correct(self, full_plan):
        plan = full_plan
        expected = np.exp(-2j * np.pi * 3 * np.arange(plan.p) / plan.p)
        np.testing.assert_array_equal(plan.segment_phase(3), expected)
        assert plan.segment_phase(3) is plan.segment_phase(3)
        with pytest.raises(IndexError):
            plan.segment_phase(plan.p)

    def test_forward_inverse_roundtrip(self, full_plan, rng):
        x = _complex(rng, full_plan.n)
        back = soi_ifft(soi_fft(x, full_plan), full_plan)
        np.testing.assert_allclose(back, x, atol=1e-12)


class TestSoiPlanCache:
    @pytest.fixture(autouse=True)
    def fresh(self):
        clear_soi_plan_cache()
        yield
        clear_soi_plan_cache()

    def test_same_parameters_share_one_plan(self):
        assert soi_plan_for(1024, 4) is soi_plan_for(1024, 4)
        info = soi_plan_cache_info()
        assert info["plans"] == 1
        assert info["misses"] == 1
        assert info["hits"] == 1

    def test_distinct_parameters_get_distinct_plans(self):
        assert soi_plan_for(1024, 4) is not soi_plan_for(1024, 8)

    def test_cached_plan_output_matches_fresh_plan(self, rng):
        x = _complex(rng, 2048)
        cached = soi_fft(x, soi_plan_for(2048, 4))
        fresh = soi_fft(x, SoiPlan(n=2048, p=4))
        np.testing.assert_array_equal(cached, fresh)

    def test_eviction_counter_round_trip(self, monkeypatch):
        """LRU evictions are counted and survive info() reads; clear resets."""
        import repro.core.plan as plan_mod

        monkeypatch.setattr(plan_mod, "_SOI_CACHE_MAX", 2)
        first = soi_plan_for(1024, 4)
        soi_plan_for(1024, 8)
        soi_plan_for(2048, 4)  # evicts the (1024, 4) plan
        info = soi_plan_cache_info()
        assert info["plans"] == 2
        assert info["evictions"] == 1
        assert info["misses"] == 3
        assert soi_plan_for(1024, 4) is not first  # rebuilt after eviction
        assert soi_plan_cache_info()["evictions"] == 2
        clear_soi_plan_cache()
        info = soi_plan_cache_info()
        assert info["plans"] == 0 and info["evictions"] == 0


class TestSequentialDistributedEquality:
    """All assertions route through the shared ``seq_dist`` harness
    (tests/conftest.py) — the invariant is stated in one place."""

    CASES = [(4096, 8, 4), (8192, 4, 4), (8192, 8, 2)]

    @pytest.mark.parametrize("n,p,nranks", CASES)
    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    def test_dist_bitwise_equals_sequential(self, seq_dist, n, p, nranks, backend, rng):
        plan = soi_plan_for(n, p)
        x = _complex(rng, n)
        seq_dist.assert_bitwise_vs_sequential(x, plan, nranks, backend=backend)

    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    def test_verify_path_is_bit_transparent(self, seq_dist, backend, rng):
        # The verified path is the reliable transport: every chunk is
        # checksummed and acknowledged, and the output must not change.
        plan = soi_plan_for(4096, 8)
        x = _complex(rng, 4096)
        _, stats = seq_dist.assert_bitwise_vs_sequential(
            x, plan, 4, backend=backend,
            run_kwargs={"transport": TransportPolicy()},
        )
        assert stats.phase("alltoall").acks > 0  # the transport really ran

    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    def test_trace_path_is_bit_transparent(self, seq_dist, backend, rng):
        plan = soi_plan_for(4096, 8)
        x = _complex(rng, 4096)
        rec = TraceRecorder()
        seq_dist.assert_bitwise_vs_sequential(
            x, plan, 4, backend=backend, run_kwargs={"trace": rec}
        )
        assert rec.timeline().spans  # the trace actually recorded work

    def test_inverse_dist_bitwise_equals_sequential_inverse(self, seq_dist, rng):
        plan = soi_plan_for(4096, 8)
        x = _complex(rng, 4096)
        seq_dist.assert_bitwise_vs_sequential(
            x, plan, 4, backend="repro", inverse=True
        )
