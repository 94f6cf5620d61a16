"""Shared fixtures for the repro test suite.

Plans are session-scoped: constructing a SoiPlan computes the window
metrics and coefficient tensor, which is cheap but not free, and the
same canonical plans are reused across dozens of tests.

This module also owns the suite's shared accuracy floors (one place to
re-derive them from the window designs, instead of magic numbers
scattered per file) and the :class:`SeqDistHarness` that pins the
repo's central invariant — distributed transforms are *bitwise* equal
to their sequential counterparts — behind one helper so every test
asserts it the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SoiPlan
from repro.dft import get_backend

# ---------------------------------------------------------------------------
# Shared accuracy floors (SNR in dB against numpy.fft): the full window
# is designed for ~14.5 digits (~290 dB); the repro backend's own
# kernels cost a few dB of summation-order noise; per-segment slices see
# less cancellation averaging; digits10 is the reduced-accuracy preset.
# ---------------------------------------------------------------------------

SNR_FULL_DB = 280.0       # full window, numpy node-local FFTs
SNR_FULL_REPRO_DB = 270.0  # full window, repro kernels
SNR_SEGMENT_DB = 250.0    # per-rank / per-segment output slices
SNR_DIGITS10_DB = 190.0   # the digits10 window preset

#: Absolute tolerance for forward/inverse roundtrips of the full window.
ROUNDTRIP_ATOL = 1e-12

#: The named backends as the library built them, before any test ran.
_BACKENDS_AT_IMPORT = {name: get_backend(name) for name in ("numpy", "repro")}


@pytest.fixture(autouse=True)
def _named_backends_unchanged():
    """Fail the test that leaves a named backend swapped for another object.

    Every module collected later would otherwise run the default
    pipeline on that object (a backend without ``fft_tt_into`` silently
    takes the out-of-place fft-p path).  Checked after each test, so the
    failure names the test that did it.
    """
    yield
    for name, backend in _BACKENDS_AT_IMPORT.items():
        assert get_backend(name) is backend, f"a test replaced the {name!r} backend"


class SeqDistHarness:
    """Run a distributed transform and assert the seq == dist invariant.

    Every distributed entry point in :mod:`repro.parallel` promises
    bit-for-bit agreement with its sequential counterpart (the
    distributed pipeline performs the identical flop sequence).  Tests
    assert that through this one helper so the invariant is stated —
    and strengthened — in exactly one place.
    """

    @staticmethod
    def distributed(x, plan, nranks, dist_fn=None, run_kwargs=None, **kwargs):
        """Run *dist_fn* collectively; returns (output, traffic stats)."""
        from repro.parallel import soi_fft_distributed
        from repro.simmpi import run_spmd

        fn = dist_fn if dist_fn is not None else soi_fft_distributed

        def body(comm):
            block = plan.n // comm.size
            lo = comm.rank * block
            return fn(comm, x[lo : lo + block], plan, **kwargs)

        res = run_spmd(nranks, body, **(run_kwargs or {}))
        return np.concatenate(res.values), res.stats

    @classmethod
    def assert_bitwise_vs_sequential(
        cls,
        x,
        plan,
        nranks,
        *,
        backend="numpy",
        inverse=False,
        run_kwargs=None,
        **dist_kwargs,
    ):
        """Assert dist == seq bit-for-bit; returns (output, stats).

        *dist_kwargs* (``overlap=``, ``trace=``...) go only to the
        distributed side, and *run_kwargs* (``transport=``...) to
        ``run_spmd`` — they are exactly the knobs whose
        bit-transparency this assertion pins.
        """
        from repro.core.soi import soi_fft, soi_ifft
        from repro.parallel import soi_fft_distributed, soi_ifft_distributed

        seq_fn, dist_fn = (
            (soi_ifft, soi_ifft_distributed) if inverse else (soi_fft, soi_fft_distributed)
        )
        seq = seq_fn(x, plan, backend=backend)
        dist, stats = cls.distributed(
            x, plan, nranks, dist_fn=dist_fn,
            run_kwargs=run_kwargs, backend=backend, **dist_kwargs,
        )
        np.testing.assert_array_equal(dist, seq)
        return dist, stats


@pytest.fixture(scope="session")
def seq_dist() -> type[SeqDistHarness]:
    """The sequential/distributed bitwise-equality harness."""
    return SeqDistHarness


@pytest.fixture(scope="session")
def full_plan() -> SoiPlan:
    """The paper's operating point: beta=1/4, full-accuracy window."""
    return SoiPlan(n=4096, p=8)


@pytest.fixture(scope="session")
def small_plan() -> SoiPlan:
    """A small low-accuracy plan cheap enough for dense-matrix tests."""
    return SoiPlan(n=256, p=4, window="digits6")


@pytest.fixture(scope="session")
def medium_plan() -> SoiPlan:
    """Mid-size plan with multiple segments per rank in distributed runs."""
    return SoiPlan(n=8192, p=16, window="digits10")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_complex(n: int, seed: int = 0) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.standard_normal(n) + 1j * gen.standard_normal(n)
