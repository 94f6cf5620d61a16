"""Execution-time models (Section 7.4 of the paper).

The paper models weak-scaling execution time out of three ingredients —
node-local FFT time, node-local convolution time, and all-to-all
latency — and validates the model against measurements (Fig. 8 matches
the analytic ``3/(1+beta)`` bound "practically perfectly").  We
implement the same decomposition:

- ``T_fft``: nominal ``5 n log2 n`` flops at ``fft_efficiency`` of node
  peak (the paper: "FFT's computational efficiency is notoriously low -
  often hovering around 10%");
- ``T_conv``: ``8 N' B`` flops at ``conv_efficiency`` (paper: "about
  40% of the processor's peak performance");
- ``T_mpi``: the topology's all-to-all time (injection- or
  bisection-bound, Section 7.4).

Total for an algorithm with ``alltoall_count`` global exchanges and
oversampling ``beta``::

    T = T_fft((1+beta)-inflated work) + c * T_conv + alltoall_count * T_mpi

with the convolution-uncertainty knob ``c in [0.75, 1.25]`` from the
paper's projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..cluster.machine import LibraryProfile, NodeSpec, XEON_E5_2670_NODE
from ..cluster.topology import Topology
from ..dft.flops import fft_flops

__all__ = ["TimeBreakdown", "WeakScalingModel", "BYTES_PER_POINT"]

BYTES_PER_POINT = 16  # double-precision complex


@dataclass(frozen=True)
class TimeBreakdown:
    """One modelled execution: component times in seconds."""

    nodes: int
    n_total: int
    t_fft: float
    t_conv: float
    t_comm: float
    t_halo: float = 0.0

    @property
    def total(self) -> float:
        return self.t_fft + self.t_conv + self.t_comm + self.t_halo

    @property
    def comm_fraction(self) -> float:
        """Share of time spent communicating (the paper: 50%-90%+ for
        standard libraries at scale)."""
        return (self.t_comm + self.t_halo) / self.total

    @property
    def gflops(self) -> float:
        """The paper's metric: ``5 N log2 N`` / time, in GFLOPS."""
        return fft_flops(self.n_total) / self.total / 1e9


@dataclass
class WeakScalingModel:
    """Section 7.4 time model for one library profile on one fabric.

    Parameters
    ----------
    profile:
        Library profile (efficiencies + all-to-all count + beta); see
        :data:`repro.cluster.machine.LIBRARY_PROFILES`.
    fabric:
        Interconnect model.
    node:
        Node spec; defaults to the Table-1 Xeon E5-2670.
    points_per_node:
        Weak-scaling payload; the paper uses ``2**28`` double-complex
        points per node.
    b:
        SOI stencil width (ignored for non-oversampling profiles);
        default 72, the paper's full-accuracy value.
    conv_c:
        The convolution-uncertainty factor c in [0.75, 1.25].
    """

    profile: LibraryProfile
    fabric: Topology
    node: NodeSpec = XEON_E5_2670_NODE
    points_per_node: int = 2**28
    b: int = 72
    conv_c: float = 1.0

    def __post_init__(self) -> None:
        if self.points_per_node <= 0:
            raise ValueError("points_per_node must be positive")
        if self.b <= 0:
            raise ValueError("b must be positive")
        if not 0.5 <= self.conv_c <= 2.0:
            raise ValueError(f"conv_c {self.conv_c} outside sanity range [0.5, 2]")

    # ---- components ------------------------------------------------------

    def fft_time(self, nodes: int) -> float:
        """Per-node FFT time under weak scaling.

        Work per node is ``5 * ppn_eff * log2(N_eff)`` where the
        oversampling (if any) inflates both the per-node points and the
        total transform size the local stages see.
        """
        beta = self.profile.oversampling
        ppn_eff = self.points_per_node * (1.0 + beta)
        n_eff = ppn_eff * nodes
        flops = 5.0 * ppn_eff * math.log2(n_eff)
        return flops / (self.node.dp_gflops * 1e9 * self.profile.fft_efficiency)

    def conv_time(self) -> float:
        """Per-node convolution time (zero for non-SOI profiles).

        ``8 * (1+beta) * ppn * B`` real flops at conv efficiency —
        constant in node count (Section 7.4: "T_conv(n) remains roughly
        constant regardless of n in our weak scaling scenario").
        """
        beta = self.profile.oversampling
        if beta == 0.0:
            return 0.0
        flops = 8.0 * self.points_per_node * (1.0 + beta) * self.b
        return self.conv_c * flops / (
            self.node.dp_gflops * 1e9 * self.profile.conv_efficiency
        )

    def comm_time(self, nodes: int) -> float:
        """All all-to-all exchanges: count x one exchange of the payload.

        For SOI the single exchange carries ``(1+beta) N`` points — the
        paper's ``(1+beta) * T_mpi(n)`` term; for the baselines, three
        exchanges of ``N`` points.
        """
        beta = self.profile.oversampling
        n_total_bytes = self.points_per_node * nodes * BYTES_PER_POINT
        one = self.fabric.alltoall_time(n_total_bytes * (1.0 + beta), nodes)
        return self.profile.alltoall_count * one

    def halo_time(self, nodes: int) -> float:
        """SOI's neighbour exchange: ``(B - nu) * P`` points per node.

        With P = nodes * 8 segments (the paper's configuration) this is
        a vanishing fraction of the payload; modelled for completeness.
        """
        if self.profile.oversampling == 0.0 or nodes == 1:
            return 0.0
        segments = nodes * 8
        halo_points = self.b * segments  # upper bound on (B - nu) * P
        return self.fabric.neighbor_time(halo_points * BYTES_PER_POINT, nodes)

    # ---- headline --------------------------------------------------------

    def breakdown(self, nodes: int) -> TimeBreakdown:
        """Full modelled execution at *nodes* nodes (weak scaling)."""
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        return TimeBreakdown(
            nodes=nodes,
            n_total=self.points_per_node * nodes,
            t_fft=self.fft_time(nodes),
            t_conv=self.conv_time(),
            t_comm=self.comm_time(nodes),
            t_halo=self.halo_time(nodes),
        )
