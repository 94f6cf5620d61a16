"""Weak-scaling sweeps: the engine behind Figs. 5, 6, 7 and 8.

A sweep runs the Section-7.4 time model for a set of library profiles
across node counts on one fabric and reports the paper's quantities:
GFLOPS bars per library and the SOI-over-best-baseline speedup line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.fabrics import ClusterSpec
from ..cluster.machine import LIBRARY_PROFILES, LibraryProfile
from .model import TimeBreakdown, WeakScalingModel

__all__ = ["SweepPoint", "WeakScalingSweep", "run_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One (library, node-count) cell of a weak-scaling figure."""

    library: str
    nodes: int
    breakdown: TimeBreakdown

    @property
    def gflops(self) -> float:
        return self.breakdown.gflops


@dataclass
class WeakScalingSweep:
    """Results of one figure's sweep, with the paper's derived series."""

    cluster: ClusterSpec
    node_counts: list[int]
    libraries: list[str]
    points: dict[tuple[str, int], SweepPoint] = field(default_factory=dict)

    def speedup_series(self, over: str = "MKL") -> list[float]:
        """SOI speedup over *over* (the Fig. 5/6/8 line graph)."""
        return [
            self.points[(over, n)].breakdown.total
            / self.points[("SOI", n)].breakdown.total
            for n in self.node_counts
        ]

    def comm_fractions(self, library: str) -> list[float]:
        return [
            self.points[(library, n)].breakdown.comm_fraction
            for n in self.node_counts
        ]


def run_sweep(
    cluster: ClusterSpec,
    node_counts: list[int],
    libraries: list[str] | None = None,
    points_per_node: int = 2**28,
    b: int = 72,
    conv_c: float = 1.0,
    profiles: dict[str, LibraryProfile] | None = None,
) -> WeakScalingSweep:
    """Run the weak-scaling model for each library at each node count."""
    libs = libraries if libraries is not None else ["SOI", "MKL", "FFTE", "FFTW"]
    prof_map = profiles if profiles is not None else LIBRARY_PROFILES
    sweep = WeakScalingSweep(cluster, list(node_counts), list(libs))
    for lib in libs:
        model = WeakScalingModel(
            profile=prof_map[lib],
            fabric=cluster.fabric,
            node=cluster.node,
            points_per_node=points_per_node,
            b=b,
            conv_c=conv_c,
        )
        for n in node_counts:
            sweep.points[(lib, n)] = SweepPoint(lib, n, model.breakdown(n))
    return sweep
