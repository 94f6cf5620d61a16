"""Tests for the Table-1 machine constants and library profiles."""

import pytest

from repro.cluster import LIBRARY_PROFILES, LibraryProfile, XEON_E5_2670_NODE


class TestNodeSpec:
    def test_table1_values(self):
        node = XEON_E5_2670_NODE
        assert node.sockets == 2
        assert node.cores_per_socket == 8
        assert node.smt == 2
        assert node.dp_gflops == 330.0
        assert node.clock_ghz == 2.60
        assert node.dram_gb == 64

    def test_derived_counts(self):
        assert XEON_E5_2670_NODE.cores == 16

    def test_table_rows_match_paper_format(self):
        rows = dict(XEON_E5_2670_NODE.table_rows())
        assert rows["Sock. x core x SMT"] == "2 x 8 x 2"
        assert rows["SIMD width"].startswith("8 (single precision), 4")
        assert rows["DP GFLOPS"] == "330"
        assert rows["L1/L2/L3 Cache (KB)"] == "64/256/20,480"


class TestLibraryProfiles:
    def test_four_libraries_present(self):
        assert set(LIBRARY_PROFILES) == {"SOI", "MKL", "FFTE", "FFTW"}

    def test_soi_is_single_alltoall(self):
        assert LIBRARY_PROFILES["SOI"].alltoall_count == 1
        assert LIBRARY_PROFILES["SOI"].oversampling == 0.25

    def test_baselines_are_triple_alltoall(self):
        for name in ("MKL", "FFTE", "FFTW"):
            assert LIBRARY_PROFILES[name].alltoall_count == 3
            assert LIBRARY_PROFILES[name].oversampling == 0.0

    def test_mkl_is_fastest_baseline(self):
        """Fig. 5 ordering: MKL >= FFTE >= FFTW on node-local efficiency."""
        assert (
            LIBRARY_PROFILES["MKL"].fft_efficiency
            >= LIBRARY_PROFILES["FFTE"].fft_efficiency
            >= LIBRARY_PROFILES["FFTW"].fft_efficiency
        )

    def test_paper_efficiencies(self):
        """Section 7.4: FFT ~10% of peak, convolution ~40%."""
        assert LIBRARY_PROFILES["SOI"].fft_efficiency == pytest.approx(0.10)
        assert LIBRARY_PROFILES["SOI"].conv_efficiency == pytest.approx(0.40)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            LibraryProfile("bad", 0.0, 0.4, 1, 0.25)
        with pytest.raises(ValueError):
            LibraryProfile("bad", 0.1, 1.5, 1, 0.25)
        with pytest.raises(ValueError):
            LibraryProfile("bad", 0.1, 0.4, 0, 0.25)
        with pytest.raises(ValueError):
            LibraryProfile("bad", 0.1, 0.4, 1, -0.1)
