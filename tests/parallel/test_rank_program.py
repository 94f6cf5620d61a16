"""The SOI rank program's shared contracts: one phase list, one tag table.

Every path of :func:`soi_fft_distributed` — one collective, per-group
pieces, ``resilience=`` with and without ``overlap=`` — enters phases
named in :data:`SOI_PHASES`, in that order, so a fault plan's kill
boundary means the same point on each.  Every point-to-point exchange
of :mod:`repro.parallel` draws its tag from one table, so no two
exchanges can share a channel by accident.
"""

import importlib
import pkgutil

import pytest

import repro.parallel
from repro.bench.workloads import random_complex
from repro.core import SoiPlan
from repro.parallel import SoiResilience, soi_fft_distributed, split_blocks
from repro.parallel.soi_dist import SOI_PHASES, TAGS
from repro.simmpi import FaultPlan, run_spmd

RANKS = 4


def _parallel_modules():
    for info in pkgutil.iter_modules(repro.parallel.__path__):
        yield importlib.import_module(f"repro.parallel.{info.name}")


class TestTagTable:
    def test_every_point_to_point_tag_is_in_the_table(self):
        strays = [
            f"{mod.__name__}.{name}"
            for mod in _parallel_modules()
            for name, value in vars(mod).items()
            if name.endswith("_TAG") and isinstance(value, int)
        ]
        assert strays == []

    def test_tags_are_distinct_and_positive(self):
        tags = list(TAGS.values())
        assert len(set(tags)) == len(tags), TAGS
        assert all(isinstance(t, int) and t > 0 for t in tags), TAGS


class _PhaseLog(FaultPlan):
    """A fault plan that kills nobody and logs every phase entry."""

    def __init__(self):
        super().__init__()
        self.entries = []

    def should_kill(self, rank, phase):
        self.entries.append((rank, phase))
        return super().should_kill(rank, phase)


@pytest.fixture(scope="module")
def plan():
    return SoiPlan(n=2048, p=8, window="digits6")


@pytest.mark.parametrize("overlap", [False, True], ids=["one-group", "overlap"])
@pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilience"])
def test_every_path_walks_the_shared_phase_list(plan, overlap, resilient):
    blocks = split_blocks(random_complex(plan.n, 5), RANKS)
    log = _PhaseLog()
    res = SoiResilience() if resilient else None
    run_spmd(
        RANKS,
        lambda c: soi_fft_distributed(
            c, blocks[c.rank], plan, overlap=overlap, resilience=res
        ),
        faults=log,
        resilient=resilient,
        timeout=30,
    )
    expect = (
        ("replicate" if resilient else "halo", "convolve", "fft-p", "alltoall", "fft-m")
        + (("commit",) if resilient else ())
    )
    for rank in range(RANKS):
        first_entries = list(dict.fromkeys(p for r, p in log.entries if r == rank))
        assert tuple(first_entries) == expect, (rank, first_entries)
        assert all(p in SOI_PHASES for p in first_entries)
    # SOI_PHASES lists them in program order.
    assert [SOI_PHASES.index(p) for p in expect] == sorted(
        SOI_PHASES.index(p) for p in expect
    )


def test_no_phase_in_the_list_is_dead(plan):
    """Each listed phase is entered by some path (``recover`` by a
    resilient run that loses a rank)."""
    blocks = split_blocks(random_complex(plan.n, 6), RANKS)
    log = _PhaseLog().kill(2, phase="alltoall")
    res = SoiResilience()
    out = run_spmd(
        RANKS,
        lambda c: soi_fft_distributed(c, blocks[c.rank], plan, resilience=res),
        faults=log,
        resilient=True,
        timeout=30,
    )
    assert out.degraded
    seen = {p for _, p in log.entries}
    plain = _PhaseLog()
    run_spmd(
        RANKS, lambda c: soi_fft_distributed(c, blocks[c.rank], plan), faults=plain
    )
    seen |= {p for _, p in plain.entries}
    assert seen == set(SOI_PHASES)
