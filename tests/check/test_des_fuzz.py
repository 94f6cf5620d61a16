"""Schedule fuzzing on the discrete-event engine (PR 9).

The DES scheduler's permuted message releases and start orders are the
virtual-time analogue of the thread engine's OS-scheduler chaos; every
seeded interleaving must reproduce the unperturbed reference bitwise in
outputs, traffic statistics, and trace structure.  The sweeps also pin
liveness: generously bounded operations never time out and never hang
under fuzzed DES schedules.
"""

import time

import numpy as np
import pytest

from repro.check import (
    ScheduleController,
    fuzz_distributed_soi,
    replay_interleavings,
)
from repro.simmpi import run_spmd

GUARD_S = 8.0


class TestFuzzedSoiUnderDes:
    def test_distributed_soi_deterministic_under_des_schedules(self):
        report = fuzz_distributed_soi(
            n=4096, p=8, nranks=4, schedules=6, seed="des-fuzz",
            run_kwargs={"engine": "des"},
        )
        assert report.ok, report.as_dict()["mismatches"]
        assert report.distinct_interleavings > 1

    def test_a_seed_replays_its_interleavings_on_des(self):
        """Two DES fuzz runs of one seed realise the same delivery
        orders: the fingerprints a report names can be replayed."""
        runs = [
            fuzz_distributed_soi(schedules=4, run_kwargs={"engine": "des"})
            for _ in range(2)
        ]
        assert all(r.ok for r in runs)
        assert runs[0].fingerprints == runs[1].fingerprints

    def test_hierarchical_schedule_fuzzes_clean_under_des(self):
        report = fuzz_distributed_soi(
            n=4096, p=8, nranks=4, schedules=4, seed="des-hier",
            run_kwargs={
                "engine": "des",
                "ranks_per_node": 2,
                "alltoall_algorithm": "hierarchical",
            },
        )
        assert report.ok, report.as_dict()["mismatches"]

    def test_overlap_path_fuzzes_clean_under_des(self):
        report = fuzz_distributed_soi(
            n=4096, p=8, nranks=4, schedules=4, seed="des-overlap",
            overlap=True, run_kwargs={"engine": "des"},
        )
        assert report.ok, report.as_dict()["mismatches"]


class TestReplayInterleavingsUnderDes:
    def test_ragged_alltoall_replays_bitwise(self):
        def program(comm):
            rng = np.random.default_rng(100 + comm.rank)
            return comm.alltoall_matrix(rng.standard_normal((comm.size, 8)))

        report = replay_interleavings(
            program, 8, schedules=6, seed="ragged",
            run_kwargs={
                "engine": "des",
                "ranks_per_node": 3,
                "alltoall_algorithm": "hierarchical",
            },
        )
        assert report.ok, report.as_dict()["mismatches"]

    def test_engines_agree_under_identical_fuzz_seeds(self):
        """The same schedule seed perturbs both engines; each must still
        match its own unperturbed reference — and the references match
        each other (transitively: fuzzed DES == fuzzed threads)."""

        def program(comm):
            objs = [np.full(4, comm.rank, float) for _ in range(comm.size)]
            return np.stack(comm.alltoall(objs))

        ref = {}
        for engine in ("thread", "des"):
            rep = replay_interleavings(
                program, 4, schedules=3, seed="xengine",
                run_kwargs={"engine": engine},
            )
            assert rep.ok, (engine, rep.as_dict()["mismatches"])
            ref[engine] = run_spmd(4, program, engine=engine).values
        for a, b in zip(ref["thread"], ref["des"]):
            assert a.tobytes() == b.tobytes()


class TestLivenessSweepsUnderDes:
    @pytest.mark.parametrize("seed", range(6))
    def test_no_spurious_timeouts(self, seed):
        """Generously bounded ops complete under fuzzed DES schedules."""

        def body(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.arange(8.0) + comm.rank, right, tag=1)
            got = comm.recv(left, tag=1, timeout=GUARD_S)
            comm.barrier(timeout=GUARD_S)
            objs = [np.full(4, comm.rank) for _ in range(comm.size)]
            pieces = comm.alltoall(objs, timeout=GUARD_S)
            return float(got[0]), [int(p[0]) for p in pieces]

        res = run_spmd(
            4, body, resilient=True, engine="des",
            schedule=ScheduleController(seed=seed), timeout=GUARD_S,
        )
        assert not res.degraded
        for rank in range(4):
            first, gathered = res.values[rank]
            assert first == (rank - 1) % 4
            assert gathered == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(4))
    def test_no_hangs_wall_clock_bounded(self, seed):
        """Fuzzed DES runs finish in wall time far under the virtual
        budget — held messages are always eventually released."""

        def body(comm):
            for round_ in range(3):
                sub = comm.shrink(epoch=round_)
                sub.allgather(comm.rank)
                comm.barrier(timeout=GUARD_S)
            return "done"

        t0 = time.perf_counter()
        res = run_spmd(
            8, body, engine="des",
            schedule=ScheduleController(seed=f"hang/{seed}"), timeout=GUARD_S,
        )
        assert time.perf_counter() - t0 < GUARD_S
        assert res.values == ["done"] * 8
