"""Tests for the interconnect topology models."""

import pytest

from repro.cluster import EthernetFabric, FatTree, Torus3D


class TestAlltoallTimeGeneric:
    @pytest.mark.parametrize(
        "fabric", [FatTree(), Torus3D(), EthernetFabric()], ids=["fat", "torus", "eth"]
    )
    def test_single_node_is_free(self, fabric):
        assert fabric.alltoall_time(1e9, 1) == 0.0

    @pytest.mark.parametrize(
        "fabric", [FatTree(), Torus3D(), EthernetFabric()], ids=["fat", "torus", "eth"]
    )
    def test_zero_bytes_is_free(self, fabric):
        assert fabric.alltoall_time(0, 8) == 0.0

    @pytest.mark.parametrize(
        "fabric", [FatTree(), Torus3D(), EthernetFabric()], ids=["fat", "torus", "eth"]
    )
    def test_monotone_in_volume(self, fabric):
        assert fabric.alltoall_time(2e9, 8) > fabric.alltoall_time(1e9, 8)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            FatTree().alltoall_time(-1, 4)

    def test_nonpositive_nodes_rejected(self):
        with pytest.raises(ValueError):
            FatTree().alltoall_time(1e6, 0)


class TestFatTree:
    def test_linear_regime_injection_bound(self):
        """Up to the knee, per-node time is constant under weak scaling
        (aggregate bandwidth scales linearly — Section 7.1)."""
        ft = FatTree()
        v_per_node = 1e9
        t8 = ft.alltoall_time(8 * v_per_node, 8)
        t32 = ft.alltoall_time(32 * v_per_node, 32)
        assert t32 < t8 * 1.2  # near-flat

    def test_taper_slows_beyond_knee(self):
        """Beyond 32 nodes the per-node all-to-all time grows."""
        ft = FatTree()
        v = 1e9
        t32 = ft.alltoall_time(32 * v, 32)
        t128 = ft.alltoall_time(128 * v, 128)
        assert t128 > t32

    def test_max_nodes(self):
        assert FatTree(arity=14).max_nodes() == 196
        with pytest.raises(ValueError, match="at most"):
            FatTree().alltoall_time(1e6, 500)

    def test_neighbor_time_free_on_one_node(self):
        assert FatTree().neighbor_time(1e6, 1) == 0.0

    def test_neighbor_time_uses_injection(self):
        ft = FatTree(alltoall_efficiency=1.0)
        assert ft.neighbor_time(ft.injection_bandwidth(), 4) == pytest.approx(1.0)


class TestTorus3D:
    def test_radix_growth(self):
        t = Torus3D(concentration=16)
        assert t.radix_for(16) == pytest.approx(1.0)
        assert t.radix_for(128) == pytest.approx(2.0)
        assert t.radix_for(1024) == pytest.approx(4.0)

    def test_bisection_scales_as_two_thirds_power(self):
        """Footnote 2 of the paper: torus bandwidth ~ (node count)^(2/3)."""
        t = Torus3D()
        b1 = t.bisection_bandwidth(128)
        b8 = t.bisection_bandwidth(8 * 128)
        assert b8 / b1 == pytest.approx(4.0, rel=1e-6)  # 8^(2/3) = 4

    def test_becomes_bisection_bound_at_scale(self):
        """The per-node all-to-all time grows with n once the bisection
        binds (the Fig. 6 'narrower bandwidth' effect beyond ~32 nodes)."""
        t = Torus3D()
        v = 4.3e9  # paper-scale per-node payload
        t16 = t.alltoall_time(16 * v, 16)
        t64 = t.alltoall_time(64 * v, 64)
        t512 = t.alltoall_time(512 * v, 512)
        assert t64 > t16 * 1.05
        assert t512 > t64 * 1.5

    def test_small_installation_floor(self):
        assert Torus3D().bisection_bandwidth(1) > 0


class TestEthernet:
    def test_injection_is_always_binding(self):
        """Flat switch: per-node time constant at any scale."""
        e = EthernetFabric()
        v = 1e9
        times = [e.alltoall_time(n * v, n) / ((n - 1) / n) for n in (2, 8, 64)]
        assert max(times) / min(times) < 1.01

    def test_ten_gbit_line_rate(self):
        assert EthernetFabric(link_gbit=10.0).injection_bandwidth() == 1.25e9

    def test_low_alltoall_efficiency(self):
        """The calibrated incast factor keeps Fig. 8 in its measured band."""
        assert EthernetFabric().alltoall_efficiency < 0.15
