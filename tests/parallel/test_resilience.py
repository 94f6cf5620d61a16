"""Tests for the ABFT ``resilience=`` mode of the distributed SOI FFT.

The survivable-SOI contract: a single rank death at any phase boundary
after ``replicate`` is survived with BIT-EXACT recovery of the full
spectrum; a death at ``replicate`` (the input dies with the rank before
any copy exists) raises a structured :class:`RankFailedError` on every
survivor; and nothing — ever — hangs.  The contract holds on both
exchange strategies (one group, and ``overlap=True`` chunk groups), on
both engines, and at both precisions.
"""

import time

import numpy as np
import pytest

from repro.bench.workloads import random_complex
from repro.check.conformance import soi_tolerance
from repro.check.schedules import ScheduleController
from repro.core import SoiPlan
from repro.parallel import (
    SoiResilience,
    soi_fft_distributed,
    soi_ifft_distributed,
    split_blocks,
)
from repro.simmpi import FaultPlan, run_spmd
from repro.simmpi.errors import RankFailedError, SpmdError

RANKS = 4

#: Kill boundaries that must be SURVIVED (bit-exact recovery).
SURVIVABLE_PHASES = ("convolve", "fft-p", "alltoall", "fft-m", "commit")

#: Kill phases of the chaos soak.  ``replicate`` is the designed-
#: unrecoverable boundary (the input dies with the rank before any copy
#: exists); every later phase must be survived.
SOAK_PHASES = ("replicate", *SURVIVABLE_PHASES)

#: Hard per-run wall guard: a hang is a contract violation, not a retry.
WALL_GUARD_S = 30.0


@pytest.fixture(scope="module")
def plan():
    return SoiPlan(n=2048, p=8, window="digits6")


@pytest.fixture(scope="module")
def blocks(plan):
    return split_blocks(random_complex(plan.n, 77), RANKS)


@pytest.fixture(scope="module")
def baseline(plan, blocks):
    out = run_spmd(
        RANKS, lambda c: soi_fft_distributed(c, blocks[c.rank], plan)
    )
    return np.concatenate(out.values)


@pytest.fixture(scope="module")
def plan64():
    return SoiPlan(n=2048, p=8, window="digits6", dtype=np.complex64)


@pytest.fixture(scope="module")
def blocks64(plan64):
    return split_blocks(random_complex(plan64.n, 77).astype(np.complex64), RANKS)


@pytest.fixture(scope="module")
def baseline64(plan64, blocks64):
    out = run_spmd(
        RANKS, lambda c: soi_fft_distributed(c, blocks64[c.rank], plan64)
    )
    return np.concatenate(out.values)


def _resilient_run(plan, blocks, nranks, overlap=False, **kwargs):
    res = SoiResilience()
    out = run_spmd(
        nranks,
        lambda c: soi_fft_distributed(
            c, blocks[c.rank], plan, resilience=res, overlap=overlap
        ),
        resilient=True,
        timeout=WALL_GUARD_S,
        **kwargs,
    )
    return out, res


class _KillOnVisit(FaultPlan):
    """Kill *rank* on its *visit*-th entry into *phase* (the plain plan
    kills on the first)."""

    def __init__(self, rank, phase, visit):
        super().__init__()
        self._target, self._visit, self._seen = (rank, phase), visit, 0

    def should_kill(self, rank, phase):
        if (rank, phase) != self._target:
            return super().should_kill(rank, phase)
        self._seen += 1
        return self._seen == self._visit


def _assert_recovered(out, res, victim, baseline):
    assert out.degraded and res.degraded
    assert res.failed == (victim,)
    holder, y_dead = res.recovered_blocks[victim]
    assert holder == (victim - 1) % len(out.values)  # the buddy rebuilt it
    parts = list(out.values)
    parts[victim] = y_dead
    assert np.array_equal(np.concatenate(parts), baseline)


class TestFaultFree:
    def test_bitwise_identical_to_blocking(self, plan, blocks, baseline):
        out, res = _resilient_run(plan, blocks, RANKS)
        assert np.array_equal(np.concatenate(out.values), baseline)
        assert not res.degraded
        assert not out.degraded
        assert res.detections == []

    def test_overlap_bitwise_identical_to_blocking(self, plan, blocks, baseline):
        """resilience= composes with overlap=: the ABFT hook rides the
        pipelined chunk groups without changing a bit."""
        out, res = _resilient_run(plan, blocks, RANKS, overlap=True)
        assert np.array_equal(np.concatenate(out.values), baseline)
        assert not res.degraded
        assert res.detections == []

    @pytest.mark.parametrize("overlap", [False, True])
    def test_complex64_bitwise_identical_to_blocking(
        self, plan64, blocks64, baseline64, overlap
    ):
        out, res = _resilient_run(plan64, blocks64, RANKS, overlap=overlap)
        got = np.concatenate(out.values)
        assert got.dtype == np.complex64
        assert np.array_equal(got, baseline64)
        assert not res.degraded

    def test_inverse_bitwise_identical(self, plan, baseline):
        spec_blocks = split_blocks(baseline, RANKS)
        ref = np.concatenate(
            run_spmd(
                RANKS,
                lambda c: soi_ifft_distributed(c, spec_blocks[c.rank], plan),
            ).values
        )
        res = SoiResilience()
        got = np.concatenate(
            run_spmd(
                RANKS,
                lambda c: soi_ifft_distributed(
                    c, spec_blocks[c.rank], plan, resilience=res
                ),
                resilient=True,
            ).values
        )
        assert np.array_equal(got, ref)

    def test_no_recovery_traffic_charged(self, plan, blocks):
        out, _ = _resilient_run(plan, blocks, RANKS)
        assert out.stats.total_recovery_bytes == 0
        assert out.stats.total_recovery_flops == 0
        assert out.stats.total_detected_failures == 0

    def test_single_rank_is_a_noop_passthrough(self, plan):
        x = random_complex(plan.n, 3)
        res = SoiResilience()
        out = run_spmd(
            1,
            lambda c: soi_fft_distributed(c, x, plan, resilience=res),
            resilient=True,
        )
        ref = run_spmd(1, lambda c: soi_fft_distributed(c, x, plan))
        assert np.array_equal(out.values[0], ref.values[0])

    def test_unknown_alltoall_algorithm_rejected(self, plan, blocks):
        """The resilient world validates its schedule before any rank runs."""
        res = SoiResilience()
        with pytest.raises(ValueError, match="unknown alltoall algorithm 'bogus'"):
            run_spmd(
                RANKS,
                lambda c: soi_fft_distributed(
                    c, blocks[c.rank], plan, resilience=res
                ),
                resilient=True,
                alltoall_algorithm="bogus",
                timeout=WALL_GUARD_S,
            )


def _kill_recovers(
    plan, blocks, baseline, phase, victim, overlap=False, engine="thread"
):
    t0 = time.perf_counter()
    out, res = _resilient_run(
        plan, blocks, RANKS, overlap=overlap, engine=engine,
        faults=FaultPlan().kill(victim, phase=phase),
    )
    assert time.perf_counter() - t0 < WALL_GUARD_S
    _assert_recovered(out, res, victim, baseline)


class TestSingleFailureRecovery:
    @pytest.mark.parametrize("phase", SURVIVABLE_PHASES)
    @pytest.mark.parametrize("victim", range(RANKS))
    def test_kill_recovers_bit_exactly(self, plan, blocks, baseline, phase, victim):
        _kill_recovers(plan, blocks, baseline, phase, victim)

    @pytest.mark.parametrize(
        "overlap,engine", [(False, "des"), (True, "thread"), (True, "des")]
    )
    @pytest.mark.parametrize("phase", SURVIVABLE_PHASES)
    @pytest.mark.parametrize("victim", range(RANKS))
    def test_kill_recovers_bit_exactly_on_every_strategy_and_engine(
        self, plan, blocks, baseline, phase, victim, overlap, engine
    ):
        """The rest of the (strategy x engine) grid of the test above."""
        _kill_recovers(plan, blocks, baseline, phase, victim, overlap, engine)

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("victim", range(RANKS))
    def test_complex64_kill_at_alltoall_recovers_bit_exactly(
        self, plan64, blocks64, baseline64, victim, overlap
    ):
        """The checksums are summed in the plan's dtype, so the
        single-precision wire recovers bitwise too."""
        out, res = _resilient_run(
            plan64, blocks64, RANKS, overlap=overlap,
            faults=FaultPlan().kill(victim, phase="alltoall"),
        )
        _assert_recovered(out, res, victim, baseline64)

    @pytest.mark.parametrize("groups", [3, 5])
    def test_overlap_groups_recover_bit_exactly(self, plan, blocks, baseline, groups):
        """A casualty that dies between chunk groups has sent some pieces
        and not others; its buddy's whole-block resend replaces them all."""
        res = SoiResilience()
        out = run_spmd(
            RANKS,
            lambda c: soi_fft_distributed(
                c, blocks[c.rank], plan, resilience=res, overlap=True,
                overlap_groups=groups,
            ),
            resilient=True,
            timeout=WALL_GUARD_S,
            faults=_KillOnVisit(1, "convolve", visit=2),
        )
        _assert_recovered(out, res, 1, baseline)

    def test_recovery_traffic_and_detections_charged(self, plan, blocks):
        out, _ = _resilient_run(
            plan, blocks, RANKS, faults=FaultPlan().kill(1, phase="alltoall")
        )
        assert out.stats.total_recovery_bytes > 0
        assert out.stats.total_recovery_flops > 0
        assert out.stats.total_detected_failures > 0

    def test_agreement_traffic_charged_to_commit(self, plan, blocks):
        """The commit agreement's allgather runs on the survivors'
        communicator inside ``comm.phase("commit")``: its bytes belong
        to ``commit``, and nothing of the run is left under ``default``."""
        out, _ = _resilient_run(
            plan, blocks, RANKS, faults=FaultPlan().kill(1, phase="alltoall")
        )
        assert "default" not in out.stats.phases()
        pairs = out.stats.phase("commit").messages_by_pair
        survivors = [r for r in range(RANKS) if r != 1]
        for src in survivors:
            for dst in survivors:
                if src != dst:
                    assert pairs[(src, dst)] >= 1, (src, dst)

    def test_two_rank_world_buddy_is_also_halo_source(self, plan):
        blocks2 = split_blocks(random_complex(plan.n, 78), 2)
        ref = np.concatenate(
            run_spmd(
                2, lambda c: soi_fft_distributed(c, blocks2[c.rank], plan)
            ).values
        )
        out, res = _resilient_run(
            plan, blocks2, 2, faults=FaultPlan().kill(1, phase="alltoall")
        )
        parts = list(out.values)
        parts[1] = res.recovered_blocks[1][1]
        assert np.array_equal(np.concatenate(parts), ref)

    def test_detections_name_phase_and_casualty(self, plan, blocks):
        _, res = _resilient_run(
            plan, blocks, RANKS, faults=FaultPlan().kill(2, phase="alltoall")
        )
        assert res.detections  # at least one first-observation record
        for phase, observer, dead in res.detections:
            assert dead == 2
            assert observer != 2


def _replicate_kill_is_structured(plan, blocks, overlap):
    t0 = time.perf_counter()
    with pytest.raises(SpmdError) as ei:
        _resilient_run(
            plan, blocks, RANKS, overlap=overlap,
            faults=FaultPlan().kill(1, phase="replicate"),
        )
    assert time.perf_counter() - t0 < WALL_GUARD_S
    survivors = [e for _, e in ei.value.failures if isinstance(e, RankFailedError)]
    assert survivors, "survivors must unwind with RankFailedError"
    assert any("replica" in str(e) for e in survivors)


class TestUnrecoverable:
    def test_replicate_kill_is_structured_not_a_hang(self, plan, blocks):
        _replicate_kill_is_structured(plan, blocks, overlap=False)

    def test_replicate_kill_under_overlap_is_structured_not_a_hang(self, plan, blocks):
        _replicate_kill_is_structured(plan, blocks, overlap=True)


class TestChaosSoak:
    """>= 25 seeded (kill-phase x victim x schedule x world-size) runs.

    Every scenario must either recover within the conformance tolerance
    or raise a structured failure (the ``replicate`` boundary only) —
    zero hangs, under a hard wall-clock guard.
    """

    def test_soak(self):
        self._soak(overlap=False)

    def test_soak_overlap(self):
        self._soak(overlap=True)

    @staticmethod
    def _soak(overlap):
        plans = {
            4: SoiPlan(n=2048, p=8, window="digits6"),
            8: SoiPlan(n=4096, p=8, window="digits6"),
        }
        signals = {r: random_complex(p.n, 600 + r) for r, p in plans.items()}
        refs = {}
        recovered = structured = 0
        scenarios = 26
        for i in range(scenarios):
            phase = SOAK_PHASES[i % len(SOAK_PHASES)]
            nranks = (4, 8)[(i // len(SOAK_PHASES)) % 2]
            victim = i % nranks
            plan_r = plans[nranks]
            blocks = split_blocks(signals[nranks], nranks)
            if nranks not in refs:
                refs[nranks] = np.concatenate(
                    run_spmd(
                        nranks,
                        lambda c: soi_fft_distributed(c, blocks[c.rank], plan_r),
                    ).values
                )
            t0 = time.perf_counter()
            try:
                out, res = _resilient_run(
                    plan_r,
                    blocks,
                    nranks,
                    overlap=overlap,
                    faults=FaultPlan().kill(victim, phase=phase),
                    schedule=ScheduleController(seed=1000 + i),
                )
                parts = list(out.values)
                parts[victim] = res.recovered_blocks[victim][1]
                got = np.concatenate(parts)
                err = np.linalg.norm(got - refs[nranks]) / np.linalg.norm(
                    refs[nranks]
                )
                assert err <= soi_tolerance(plan_r), (i, phase, victim, err)
                recovered += 1
            except SpmdError as exc:
                assert phase == "replicate", (i, phase, victim, exc)
                assert any(
                    isinstance(e, RankFailedError) for _, e in exc.failures
                )
                structured += 1
            assert time.perf_counter() - t0 < WALL_GUARD_S, (i, phase, victim)
        assert recovered + structured == scenarios
        assert structured == sum(1 for i in range(scenarios) if i % 6 == 0)


class TestOverlapFailureSemantics:
    """Satellite: a kill during ``overlap=True`` must raise cleanly
    through ``waitany`` — a structured ``SpmdError`` within the timeout
    bound, at every overlap group boundary (no resilience, no hang)."""

    @pytest.mark.parametrize("phase", ("halo", "alltoall"))
    @pytest.mark.parametrize("victim", (0, 2))
    def test_overlap_kill_is_bounded_and_structured(
        self, plan, blocks, phase, victim
    ):
        t0 = time.perf_counter()
        with pytest.raises(SpmdError) as ei:
            run_spmd(
                RANKS,
                lambda c: soi_fft_distributed(
                    c, blocks[c.rank], plan, overlap=True
                ),
                resilient=True,
                faults=FaultPlan().kill(victim, phase=phase),
                timeout=WALL_GUARD_S,
            )
        assert time.perf_counter() - t0 < WALL_GUARD_S
        # Every survivor unwinds with the mini-ULFM error, and the
        # aggregate report carries every rank's failure.
        kinds = {r: type(e).__name__ for r, e in ei.value.failures}
        assert len(kinds) == RANKS
        survivors = [
            e
            for r, e in ei.value.failures
            if r != victim and isinstance(e, RankFailedError)
        ]
        assert survivors
        assert all(victim in e.ranks for e in survivors)
