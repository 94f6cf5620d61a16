"""Tests for the weak-scaling sweeps — the figure-level claims."""

import pytest

from repro.cluster import cluster
from repro.perf import run_sweep

NODES = [2, 4, 8, 16, 32, 64]


@pytest.fixture(scope="module")
def endeavor_sweep():
    return run_sweep(cluster("endeavor"), NODES)


@pytest.fixture(scope="module")
def gordon_sweep():
    return run_sweep(cluster("gordon"), NODES, libraries=["SOI", "MKL"])


@pytest.fixture(scope="module")
def ethernet_sweep():
    return run_sweep(cluster("endeavor-10gbe"), NODES, libraries=["SOI", "MKL"])


class TestFig5Shape:
    """Endeavor fat-tree: SOI beats every baseline, MKL best non-SOI."""

    def test_soi_wins_everywhere(self, endeavor_sweep):
        for n in NODES:
            soi = endeavor_sweep.points[("SOI", n)].gflops
            for lib in ("MKL", "FFTE", "FFTW"):
                assert soi > endeavor_sweep.points[(lib, n)].gflops

    def test_mkl_is_best_baseline(self, endeavor_sweep):
        for n in NODES:
            mkl = endeavor_sweep.points[("MKL", n)].gflops
            assert mkl >= endeavor_sweep.points[("FFTE", n)].gflops
            assert mkl >= endeavor_sweep.points[("FFTW", n)].gflops

    def test_speedup_in_paper_band(self, endeavor_sweep):
        """Fig. 5's line graph stays within ~[1.1, 2.0]."""
        for s in endeavor_sweep.speedup_series("MKL"):
            assert 1.1 < s < 2.0

    def test_gflops_grow_with_node_count(self, endeavor_sweep):
        series = [endeavor_sweep.points[("SOI", n)].gflops for n in NODES]
        assert all(b > a for a, b in zip(series, series[1:]))


class TestFig6Shape:
    """Gordon torus: extra SOI gain beyond 32 nodes vs the fat tree."""

    def test_speedup_grows_with_nodes(self, gordon_sweep):
        sp = gordon_sweep.speedup_series("MKL")
        assert sp[-1] > sp[0]

    def test_torus_exceeds_fat_tree_at_scale(self, gordon_sweep, endeavor_sweep):
        """The Fig. 6 observation: from 32 nodes onwards the torus's
        narrower bisection amplifies SOI's advantage."""
        g = dict(zip(NODES, gordon_sweep.speedup_series("MKL")))
        e = dict(zip(NODES, endeavor_sweep.speedup_series("MKL")))
        assert g[64] > e[64]

    def test_comm_fraction_rises_at_scale(self, gordon_sweep):
        fr = gordon_sweep.comm_fractions("MKL")
        assert fr[-1] >= fr[1]


class TestFig8Shape:
    """10 GbE: communication-dominated; speedup ~ 3/(1+beta) = 2.4."""

    def test_speedup_in_measured_band(self, ethernet_sweep):
        """Paper: 'The speed up factors lie in the interval [2.3, 2.4]'."""
        for s in ethernet_sweep.speedup_series("MKL"):
            assert 2.3 <= s <= 2.4

    def test_near_theoretical_bound(self, ethernet_sweep):
        bound = 3.0 / 1.25
        for s in ethernet_sweep.speedup_series("MKL"):
            assert s <= bound + 1e-9
            assert s >= bound - 0.1

    def test_baseline_comm_fraction_extreme(self, ethernet_sweep):
        for f in ethernet_sweep.comm_fractions("MKL"):
            assert f > 0.95


class TestFig7Shape:
    """Accuracy-performance dial at 64 Gordon nodes: smaller B => faster."""

    def test_speedup_grows_as_b_shrinks(self):
        spec = cluster("gordon")
        speedups = []
        for b in (78, 62, 44, 36):
            sweep = run_sweep(spec, [64], libraries=["SOI", "MKL"], b=b)
            speedups.append(sweep.speedup_series("MKL")[0])
        assert speedups == sorted(speedups)

    def test_ten_digit_speedup_exceeds_full(self):
        """Fig. 7: at ~10 digits SOI gains visibly over full accuracy."""
        spec = cluster("gordon")
        full = run_sweep(spec, [64], libraries=["SOI", "MKL"], b=78)
        ten = run_sweep(spec, [64], libraries=["SOI", "MKL"], b=44)
        assert ten.speedup_series("MKL")[0] > full.speedup_series("MKL")[0] * 1.05
