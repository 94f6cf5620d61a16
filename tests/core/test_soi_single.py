"""Tests for the complex64 SOI tier (the float32 pipeline end to end).

A ``SoiPlan(dtype=np.complex64)`` computes the whole pipeline — window
contraction, segment FFTs, demodulation — in single precision: the
coefficient and demodulation tables are evaluated in double and cast
once at plan build, buffers and twiddles follow the plan dtype, and the
distributed exchange moves half the bytes.  Accuracy is bounded by
float32 rounding (~1e-7 relative), far above the double-precision
Theorem-2 budget but exactly what a half-bandwidth wire buys.
"""

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.core import SoiPlan, soi_fft, soi_ifft
from repro.core.plan import clear_soi_plan_cache, soi_plan_for
from repro.parallel import soi_fft_distributed, split_blocks
from repro.simmpi import run_spmd

N = 8192
P = 8


@pytest.fixture(scope="module")
def plan64():
    return SoiPlan(n=N, p=P, dtype=np.complex64)


@pytest.fixture(scope="module")
def x64():
    return random_complex(N, seed=64).astype(np.complex64)


class TestPlanDtype:
    def test_default_is_complex128(self):
        assert SoiPlan(n=N, p=P).dtype == np.complex128

    def test_rejects_other_dtypes(self):
        with pytest.raises(ValueError, match="dtype"):
            SoiPlan(n=N, p=P, dtype=np.float32)

    def test_tables_follow_plan_dtype(self, plan64):
        assert plan64.coeffs.dtype == np.complex64
        assert plan64.demod_recip.dtype == np.complex64

    def test_cache_keys_on_dtype(self):
        clear_soi_plan_cache()
        p128 = soi_plan_for(N, P)
        p64 = soi_plan_for(N, P, dtype=np.complex64)
        assert p128 is not p64
        assert soi_plan_for(N, P, dtype=np.complex64) is p64
        assert soi_plan_for(N, P) is p128


class TestSequential:
    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    def test_accuracy_within_float32_budget(self, plan64, x64, backend):
        y = soi_fft(x64, plan64, backend=backend)
        assert y.dtype == np.complex64
        ref = np.fft.fft(x64.astype(np.complex128))
        rel = np.linalg.norm(y - ref) / np.linalg.norm(ref)
        # 64 * eps32 * log2(N): same shape of bound as the exact-kernel
        # conformance rows, at single precision.
        assert rel < 64 * np.finfo(np.float32).eps * np.log2(N)

    def test_roundtrip(self, plan64, x64):
        y = soi_fft(x64, plan64, backend="repro")
        back = soi_ifft(y, plan64, backend="repro")
        assert back.dtype == np.complex64
        rel = np.linalg.norm(back - x64) / np.linalg.norm(x64)
        assert rel < 1e-5

    def test_double_plan_unchanged_by_single_tier(self, x64):
        """The c128 path must not be perturbed by the dtype plumbing."""
        plan = SoiPlan(n=N, p=P)
        y = soi_fft(x64.astype(np.complex128), plan, backend="repro")
        assert y.dtype == np.complex128


class TestDistributed:
    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_bitwise_equal_to_sequential(self, plan64, x64, backend, overlap):
        """The seq==dist contract holds at single precision too."""
        seq = soi_fft(x64, plan64, backend=backend)
        blocks = split_blocks(x64, 4)
        res = run_spmd(
            4,
            lambda comm: soi_fft_distributed(
                comm, blocks[comm.rank], plan64, backend=backend, overlap=overlap
            ),
        )
        dist = np.concatenate(res.values)
        assert dist.dtype == np.complex64
        assert np.array_equal(dist, seq)

    def test_alltoall_moves_half_the_bytes(self, plan64, x64):
        plan128 = SoiPlan(n=N, p=P)
        x128 = x64.astype(np.complex128)

        def bytes_for(x, plan):
            blocks = split_blocks(x, 4)
            res = run_spmd(
                4,
                lambda comm: soi_fft_distributed(comm, blocks[comm.rank], plan),
            )
            return res.stats.phase("alltoall").total_bytes

        b64 = bytes_for(x64, plan64)
        b128 = bytes_for(x128, plan128)
        assert b64 * 2 == b128

    @pytest.mark.parametrize("backend", ["numpy", "repro"])
    def test_resilience_keeps_the_single_precision_bits(self, plan64, x64, backend):
        """ABFT checksums are summed in the plan's dtype, so resilience=
        runs on a complex64 plan and still equals the sequential call."""
        from repro.parallel import SoiResilience

        seq = soi_fft(x64, plan64, backend=backend)
        blocks = split_blocks(x64, 4)
        res = SoiResilience()
        out = run_spmd(
            4,
            lambda comm: soi_fft_distributed(
                comm, blocks[comm.rank], plan64, backend=backend, resilience=res
            ),
            resilient=True,
            timeout=30,
        )
        dist = np.concatenate(out.values)
        assert dist.dtype == np.complex64
        assert np.array_equal(dist, seq)
        assert not res.degraded
