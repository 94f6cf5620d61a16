"""Machine constants (the paper's Table 1).

The evaluation ran on two clusters with identical compute nodes
(dual-socket Intel Xeon E5-2670) and different interconnects.  These
dataclasses carry the Table-1 numbers into the performance model; the
benchmark for Table 1 prints them back out.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NodeSpec", "LibraryProfile", "XEON_E5_2670_NODE", "LIBRARY_PROFILES"]

GBIT = 1e9 / 8.0  # bytes/second per Gbit/s


@dataclass(frozen=True)
class NodeSpec:
    """One compute node (Table 1, "Compute node" block)."""

    name: str
    sockets: int
    cores_per_socket: int
    smt: int
    simd_width_dp: int
    clock_ghz: float
    microarchitecture: str
    dp_gflops: float
    l1_kb: int
    l2_kb: int
    l3_kb: int
    dram_gb: int

    @property
    def cores(self) -> int:
        return self.sockets * self.cores_per_socket

    def table_rows(self) -> list[tuple[str, str]]:
        """(field, value) rows matching the paper's Table 1 layout."""
        return [
            ("Sock. x core x SMT", f"{self.sockets} x {self.cores_per_socket} x {self.smt}"),
            ("SIMD width", f"{self.simd_width_dp * 2} (single precision), {self.simd_width_dp} (double precision)"),
            ("Clock (GHz)", f"{self.clock_ghz:.2f}"),
            ("Micro-architecture", self.microarchitecture),
            ("DP GFLOPS", f"{self.dp_gflops:.0f}"),
            ("L1/L2/L3 Cache (KB)", f"{self.l1_kb}/{self.l2_kb}/{self.l3_kb:,}"),
            ("DRAM (GB)", f"{self.dram_gb}"),
        ]


#: The Table-1 node: 2 x 8 x 2 Xeon E5-2670 (Sandy Bridge), 330 DP GFLOPS.
XEON_E5_2670_NODE = NodeSpec(
    name="Intel Xeon E5-2670",
    sockets=2,
    cores_per_socket=8,
    smt=2,
    simd_width_dp=4,
    clock_ghz=2.60,
    microarchitecture="Intel Xeon E5-2670 (Sandy Bridge-EP)",
    dp_gflops=330.0,
    l1_kb=64,
    l2_kb=256,
    l3_kb=20480,
    dram_gb=64,
)


@dataclass(frozen=True)
class LibraryProfile:
    """Synthetic efficiency profile of one FFT library implementation.

    The paper profiles its own code at ~10% of peak for FFT stages and
    ~40% for the convolution (Section 7.4) and measures MKL as the
    fastest non-SOI library with FFTE and FFTW close behind (Fig. 5).
    These profiles encode that ordering for the weak-scaling simulator;
    they are *model inputs*, not measurements of the real libraries.

    ``alltoall_count`` is the algorithmic constant the paper is about:
    1 for SOI, 3 for every transpose-based library.
    """

    name: str
    fft_efficiency: float
    conv_efficiency: float
    alltoall_count: int
    oversampling: float  # beta; 0 for the standard algorithm

    def __post_init__(self) -> None:
        if not 0.0 < self.fft_efficiency <= 1.0:
            raise ValueError(f"fft_efficiency out of (0,1]: {self.fft_efficiency}")
        if not 0.0 < self.conv_efficiency <= 1.0:
            raise ValueError(f"conv_efficiency out of (0,1]: {self.conv_efficiency}")
        if self.alltoall_count < 1:
            raise ValueError("alltoall_count must be >= 1")
        if self.oversampling < 0:
            raise ValueError("oversampling must be >= 0")


LIBRARY_PROFILES: dict[str, LibraryProfile] = {
    # SOI: beta=1/4 oversampling, one all-to-all, convolution at 40%.
    "SOI": LibraryProfile("SOI", 0.10, 0.40, 1, 0.25),
    # MKL: the fastest triple-transpose library in Fig. 5.
    "MKL": LibraryProfile("MKL", 0.10, 0.40, 3, 0.0),
    # FFTE / FFTW trail MKL slightly on node-local efficiency (Fig. 5).
    "FFTE": LibraryProfile("FFTE", 0.085, 0.40, 3, 0.0),
    "FFTW": LibraryProfile("FFTW", 0.075, 0.40, 3, 0.0),
}
