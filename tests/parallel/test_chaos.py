"""Acceptance sweep for the chaos-hardened runtime.

Every fault kind, in every communication phase of BOTH distributed FFT
algorithms — the SOI program blocking and pipelined (``overlap=True``),
also under ``resilience=``, on the thread and discrete-event engines —
with the reliable transport enabled, must yield output bit-identical to
the fault-free run — or a typed error — never a silent wrong answer or
a hang.  The same chaos seed must reproduce the same fault sequence and
the same recovery cost.
"""

import time

import numpy as np
import pytest

from repro.core.plan import SoiPlan
from repro.parallel import (
    SoiResilience,
    soi_fft_distributed,
    split_blocks,
    transpose_fft_distributed,
)
from repro.simmpi import (
    ChaosSchedule,
    DeadlockError,
    FaultPlan,
    RankFailure,
    RetryExhaustedError,
    SimMpiError,
    SpmdError,
    TransportPolicy,
    run_spmd,
)

RANKS = 4
N = 4096
PLAN = SoiPlan(n=N, p=8)
X = (
    np.random.default_rng(42).standard_normal(N)
    + 1j * np.random.default_rng(43).standard_normal(N)
)
BLOCKS = split_blocks(X, RANKS)

QUICK = TransportPolicy(retry_timeout=0.03, max_retries=8)

SOI_PHASES = ("halo", "alltoall")
SIXSTEP_PHASES = ("transpose-1", "transpose-2", "transpose-3")
WIRE_KINDS = ("drop", "duplicate", "delay", "truncate", "bitflip")
ENGINES = ("thread", "des")

#: World timeout of the pipelined and DES runs.  A recovered fault costs
#: milliseconds; a receive that never asks for a retransmit waits out
#: this budget and fails as DeadlockError.
GUARD_S = 5.0


def _soi_prog(comm):
    return soi_fft_distributed(comm, BLOCKS[comm.rank], PLAN)


def _soi_overlap_prog(comm):
    return soi_fft_distributed(comm, BLOCKS[comm.rank], PLAN, overlap=True)


def _sixstep_prog(comm):
    return transpose_fft_distributed(comm, BLOCKS[comm.rank], N)


def _run(prog, **kw):
    res = run_spmd(RANKS, prog, **kw)
    return np.concatenate(res.values), res


def _control_bytes(stats):
    return sum(stats.phase(p).control_bytes for p in stats.phases())


@pytest.fixture(scope="module")
def y_soi():
    y, _ = _run(_soi_prog)
    np.testing.assert_allclose(y, np.fft.fft(X), rtol=0, atol=1e-6 * np.abs(X).sum())
    return y


@pytest.fixture(scope="module")
def y_sixstep():
    y, _ = _run(_sixstep_prog)
    np.testing.assert_allclose(y, np.fft.fft(X), rtol=0, atol=1e-6 * np.abs(X).sum())
    return y


def _plan_for(kind, phase):
    # src=1, dst=0 exists in every phase: the halo ring sends rank->rank-1,
    # and the all-to-alls use every pair.  Dispatch to the fluent builder.
    builder = getattr(FaultPlan(), kind)
    return builder(phase=phase, src=1, dst=0, delay_s=0.01)


def _assert_recovered(kind, y, y_ref, res):
    np.testing.assert_array_equal(y, y_ref)
    if kind in ("drop", "truncate", "bitflip"):
        assert res.stats.total_retransmits >= 1


class TestTransportRecoversEveryKindEveryPhase:
    @pytest.mark.parametrize("kind", WIRE_KINDS)
    @pytest.mark.parametrize("phase", SOI_PHASES)
    def test_soi(self, kind, phase, y_soi):
        y, res = _run(_soi_prog, faults=_plan_for(kind, phase), transport=QUICK, timeout=60)
        _assert_recovered(kind, y, y_soi, res)

    @pytest.mark.parametrize("kind", WIRE_KINDS)
    @pytest.mark.parametrize("phase", SIXSTEP_PHASES)
    def test_sixstep(self, kind, phase, y_sixstep):
        y, res = _run(
            _sixstep_prog, faults=_plan_for(kind, phase), transport=QUICK, timeout=60
        )
        _assert_recovered(kind, y, y_sixstep, res)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", WIRE_KINDS)
    @pytest.mark.parametrize("phase", SOI_PHASES)
    def test_soi_overlap(self, engine, kind, phase, y_soi):
        """The pipelined path's receives are request waits and waitany
        polls; they recover exactly like the blocking recv."""
        y, res = _run(
            _soi_overlap_prog, faults=_plan_for(kind, phase), transport=QUICK,
            engine=engine, timeout=GUARD_S,
        )
        _assert_recovered(kind, y, y_soi, res)

    @pytest.mark.parametrize("kind", WIRE_KINDS)
    @pytest.mark.parametrize("phase", SOI_PHASES)
    def test_soi_des(self, kind, phase, y_soi):
        y, res = _run(
            _soi_prog, faults=_plan_for(kind, phase), transport=QUICK,
            engine="des", timeout=GUARD_S,
        )
        _assert_recovered(kind, y, y_soi, res)

    @pytest.mark.parametrize("kind", WIRE_KINDS)
    @pytest.mark.parametrize("phase", SIXSTEP_PHASES)
    def test_sixstep_des(self, kind, phase, y_sixstep):
        y, res = _run(
            _sixstep_prog, faults=_plan_for(kind, phase), transport=QUICK,
            engine="des", timeout=GUARD_S,
        )
        _assert_recovered(kind, y, y_sixstep, res)


def _chaos(seed, phases=None):
    return ChaosSchedule(
        seed=seed,
        p_drop=0.04,
        p_duplicate=0.04,
        p_delay=0.04,
        p_truncate=0.04,
        p_bitflip=0.04,
        delay_s=0.01,
        phases=phases,
    )


class TestChaosSweep:
    """The headline acceptance property: bit-identical or typed — never silent."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize(
        "prog,ref", [(_soi_prog, "y_soi"), (_sixstep_prog, "y_sixstep")]
    )
    def test_bit_identical_or_typed_error(self, seed, prog, ref, request):
        y_ref = request.getfixturevalue(ref)
        try:
            y, _ = _run(prog, faults=_chaos(seed), transport=QUICK, timeout=120)
        except RankFailure as failure:
            assert isinstance(failure.original, SimMpiError)
        else:
            np.testing.assert_array_equal(y, y_ref)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_overlap_bit_identical_or_typed_error(self, engine, seed, y_soi):
        try:
            y, _ = _run(
                _soi_overlap_prog, faults=_chaos(seed), transport=QUICK,
                engine=engine, timeout=GUARD_S,
            )
        except RankFailure as failure:
            assert isinstance(failure.original, SimMpiError)
            assert not isinstance(failure.original, DeadlockError)  # no hang
        else:
            np.testing.assert_array_equal(y, y_soi)

    def test_same_seed_same_cost_and_sequence(self, y_soi):
        outputs, retrans, logs = [], [], []
        for _ in range(2):
            sched = _chaos(21)
            y, res = _run(_soi_prog, faults=sched, transport=QUICK, timeout=120)
            outputs.append(y)
            retrans.append(
                (res.stats.total_retransmits, res.stats.total_retransmit_bytes)
            )
            logs.append(sorted(sched.log))
        np.testing.assert_array_equal(outputs[0], outputs[1])
        np.testing.assert_array_equal(outputs[0], y_soi)
        assert retrans[0] == retrans[1]
        assert logs[0] == logs[1]
        assert logs[0]  # chaos actually struck

    @pytest.mark.parametrize("engine", ENGINES)
    def test_overlap_same_seed_same_cost_and_sequence(self, engine, y_soi):
        retrans, logs = [], []
        for _ in range(2):
            sched = _chaos(21)
            y, res = _run(
                _soi_overlap_prog, faults=sched, transport=QUICK,
                engine=engine, timeout=GUARD_S,
            )
            np.testing.assert_array_equal(y, y_soi)
            retrans.append(
                (res.stats.total_retransmits, res.stats.total_retransmit_bytes)
            )
            logs.append(sorted(sched.log))
        assert retrans[0] == retrans[1]
        assert retrans[0][0] >= 1  # the pipelined program really recovered
        assert logs[0] == logs[1]

    def test_different_seed_different_sequence(self):
        logs = []
        for seed in (21, 22):
            sched = _chaos(seed)
            _run(_soi_prog, faults=sched, transport=QUICK, timeout=120)
            logs.append(sorted(sched.log))
        assert logs[0] != logs[1]


class TestTransportCoversTheFormerSelfCheck:
    """The cases the algorithm-level ``verify=`` mode used to repair, now
    repaired (or refused) by the reliable transport alone."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("prog", [_soi_prog, _soi_overlap_prog])
    def test_repairs_alltoall_bitflips(self, prog, engine, y_soi):
        plan = FaultPlan().bitflip(phase="alltoall", times=3)
        y, res = _run(prog, faults=plan, transport=QUICK, engine=engine, timeout=GUARD_S)
        np.testing.assert_array_equal(y, y_soi)
        assert res.stats.total_retransmits == 3

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("prog", [_soi_prog, _soi_overlap_prog])
    def test_repairs_halo_corruption(self, prog, engine, y_soi):
        sched = ChaosSchedule(seed=5, p_bitflip=0.4, phases=("halo",))
        y, res = _run(prog, faults=sched, transport=QUICK, engine=engine, timeout=GUARD_S)
        np.testing.assert_array_equal(y, y_soi)
        assert sched.log  # faults really fired on the halo
        assert res.stats.total_retransmits == len(sched.log)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_repairs_sixstep_transpose(self, engine, y_sixstep):
        plan = FaultPlan().bitflip(phase="transpose-2", times=2)
        y, res = _run(
            _sixstep_prog, faults=plan, transport=QUICK, engine=engine, timeout=GUARD_S
        )
        np.testing.assert_array_equal(y, y_sixstep)
        assert res.stats.total_retransmits == 2

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("prog", [_soi_prog, _soi_overlap_prog])
    def test_permanently_corrupt_link_exhausts_retries(self, prog, engine):
        # Every array 0->1 is corrupted in every phase, retransmissions
        # included: recovery cannot converge and must say so, long
        # before the world timeout would turn it into a DeadlockError.
        plan = FaultPlan().bitflip(src=0, dst=1, times=None)
        t0 = time.perf_counter()
        with pytest.raises(RankFailure) as info:
            _run(prog, faults=plan, transport=QUICK, engine=engine, timeout=60)
        assert isinstance(info.value.original, RetryExhaustedError)
        assert info.value.original.attempts == QUICK.max_retries
        assert time.perf_counter() - t0 < 20.0

    def test_soi_transport_control_cheaper_than_sixstep(self, y_soi, y_sixstep):
        """The paper's one-versus-three exchanges, priced on the surviving
        integrity mechanism: a clean SOI run acks fewer bytes than six-step."""
        y, res_soi = _run(_soi_prog, transport=TransportPolicy())
        np.testing.assert_array_equal(y, y_soi)
        y, res_six = _run(_sixstep_prog, transport=TransportPolicy())
        np.testing.assert_array_equal(y, y_sixstep)
        assert res_soi.stats.total_retransmits == res_six.stats.total_retransmits == 0
        assert 0 < _control_bytes(res_soi.stats) < _control_bytes(res_six.stats)


def _resilient(overlap, **kw):
    """One ``resilience=`` run (fresh shared state): (output parts, res)."""
    res = SoiResilience()
    out = run_spmd(
        RANKS,
        lambda c: soi_fft_distributed(
            c, BLOCKS[c.rank], PLAN, resilience=res, overlap=overlap
        ),
        resilient=True,
        **kw,
    )
    return list(out.values), res


class TestComposedModes:
    """``resilience=`` composed with ``overlap=`` and the transport: wire
    faults are the transport's to repair (bitwise, no ABFT recovery), and
    a rank death under chaos is the ABFT hook's — recovered bitwise or a
    typed failure, never a hang."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("kind", WIRE_KINDS)
    def test_wire_faults_repaired_under_resilience(self, kind, overlap, engine, y_soi):
        parts, res = _resilient(
            overlap, faults=_plan_for(kind, "alltoall"), transport=QUICK,
            engine=engine, timeout=GUARD_S,
        )
        np.testing.assert_array_equal(np.concatenate(parts), y_soi)
        assert not res.degraded

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_kill_under_chaos_recovers_or_is_typed(self, seed, overlap, y_soi):
        sched = _chaos(seed).kill(2, phase="alltoall")
        t0 = time.perf_counter()
        try:
            parts, res = _resilient(
                overlap, faults=sched, transport=QUICK, timeout=GUARD_S
            )
        except SpmdError as exc:
            assert all(isinstance(e, SimMpiError) for _, e in exc.failures)
        else:
            assert res.failed == (2,)
            parts[2] = res.recovered_blocks[2][1]
            np.testing.assert_array_equal(np.concatenate(parts), y_soi)
        assert time.perf_counter() - t0 < 20.0


class TestRankRestart:
    def test_killed_rank_recovered_by_restart(self, y_soi):
        plan = FaultPlan().kill(1, phase="alltoall")
        y, res = _run(_soi_prog, faults=plan, max_restarts=1, timeout=60)
        assert res.restarts == 1
        np.testing.assert_array_equal(y, y_soi)

    def test_chaos_kills_converge_with_restarts(self, y_soi):
        sched = ChaosSchedule(seed=3, p_kill=0.2, phases=SOI_PHASES)
        try:
            y, res = _run(
                _soi_prog, faults=sched, transport=QUICK, max_restarts=4, timeout=120
            )
        except RankFailure as failure:  # budget exhausted: typed, not silent
            assert isinstance(failure.original, SimMpiError)
        else:
            np.testing.assert_array_equal(y, y_soi)
