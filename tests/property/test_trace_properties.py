"""Property tests: tracing is bit-transparent and the DES timeline is deterministic.

The acceptance bar for the trace subsystem is that turning it on
changes NOTHING observable about a run — FFT outputs bit-identical,
traffic statistics identical — for arbitrary rank counts and seeds,
including runs where a seeded chaos schedule is actively corrupting
the wire under the reliable transport.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SoiPlan
from repro.parallel import soi_fft_distributed, split_blocks
from repro.simmpi import ChaosSchedule, TransportPolicy, run_spmd
from repro.trace import TraceRecorder, chrome_trace, rollup

# Smallest power of two whose per-rank block still fits the window halo
# at R = 8 (n=4096 would give block 512 < halo 592).
_PLAN = SoiPlan(n=8192, p=8)


def _soi(nranks, seed, trace=None, chaos_seed=None, engine="thread"):
    g = np.random.default_rng(seed)
    x = g.standard_normal(_PLAN.n) + 1j * g.standard_normal(_PLAN.n)
    blocks = split_blocks(x, nranks)
    kwargs = {}
    if chaos_seed is not None:
        kwargs["faults"] = ChaosSchedule(seed=chaos_seed, p_bitflip=0.06, p_drop=0.02)
        kwargs["transport"] = TransportPolicy()
    return run_spmd(
        nranks,
        lambda comm: soi_fft_distributed(comm, blocks[comm.rank], _PLAN),
        trace=trace,
        engine=engine,
        **kwargs,
    )


@settings(max_examples=8, deadline=None)
@given(nranks=st.sampled_from([1, 2, 4, 8]), seed=st.integers(0, 10_000))
def test_tracing_is_bit_transparent(nranks, seed):
    plain = _soi(nranks, seed)
    traced = _soi(nranks, seed, trace=TraceRecorder())
    for a, b in zip(plain.values, traced.values):
        np.testing.assert_array_equal(a, b)
    assert plain.stats.as_dict() == traced.stats.as_dict()


@settings(max_examples=6, deadline=None)
@given(nranks=st.sampled_from([2, 4]), chaos_seed=st.integers(0, 500))
def test_tracing_transparent_under_chaos(nranks, chaos_seed):
    """Same chaos seed, fresh schedule instances: traced == untraced."""
    plain = _soi(nranks, 1, chaos_seed=chaos_seed)
    traced = _soi(nranks, 1, trace=TraceRecorder(), chaos_seed=chaos_seed)
    for a, b in zip(plain.values, traced.values):
        np.testing.assert_array_equal(a, b)
    assert plain.stats.as_dict() == traced.stats.as_dict()


@settings(max_examples=5, deadline=None)
@given(nranks=st.sampled_from([2, 4]), chaos_seed=st.integers(0, 500))
def test_timeline_deterministic_for_fixed_seed(nranks, chaos_seed):
    """Two identical chaos runs yield byte-identical exports/rollups."""

    def capture():
        rec = TraceRecorder()
        _soi(nranks, 2, trace=rec, chaos_seed=chaos_seed, engine="des")
        tl = rec.timeline()
        return (
            json.dumps(chrome_trace(tl), sort_keys=True),
            json.dumps(rollup(tl), sort_keys=True),
        )

    assert capture() == capture()


@settings(max_examples=6, deadline=None)
@given(nranks=st.sampled_from([1, 2, 4, 8]), seed=st.integers(0, 10_000))
def test_rollup_invariants(nranks, seed):
    rec = TraceRecorder()
    res = _soi(nranks, seed, trace=rec, engine="des")
    agg = rollup(rec.timeline())
    assert agg["makespan_s"] == res.virtual_time_s
    assert agg["ranks"] == nranks
    assert agg["alltoall_epochs"] == 1  # SOI: ONE global exchange, any R
    assert agg["makespan_s"] > 0.0
    assert 0.0 <= agg["wait_fraction"] < 1.0
    assert agg["critical_path"]["coverage"] >= 0.95
