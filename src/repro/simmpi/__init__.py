"""Simulated message-passing runtime (the paper's MPI substrate).

A thread-backed SPMD world with an mpi4py-flavoured API and
byte-accurate traffic accounting.  See DESIGN.md section 1 for why this
substitution preserves the paper's claims: the algorithmic content of
SOI is its *communication structure* (one all-to-all vs three, tiny
neighbour halo), which this substrate reproduces and measures exactly;
cluster-scale wall-clock comes from the analytic interconnect models in
:mod:`repro.cluster`, exactly as in the paper's own Section 7.4.

The substrate is chaos-hardened: :mod:`repro.simmpi.faults` injects
deterministic, seed-reproducible wire faults (drop/duplicate/delay/
truncate/bitflip) and phase-boundary rank kills, and
:class:`TransportPolicy` layers a reliable transport (checksums,
sequence numbers, bounded retransmission with exponential backoff)
whose recovery cost is itself recorded in :class:`TrafficStats`.

Nonblocking primitives (:meth:`Communicator.isend`/``irecv`` returning
:class:`Request` handles, completed by :func:`waitall`/:func:`waitany`)
support communication/computation overlap.  Messages cost wall time
only under ``engine="des"``, where the virtual clock prices each one by
the cost model's wire (``run_spmd(cost_model=TraceCostModel(...))``).
"""

from .alltoall import ALGORITHMS, predicted_inter_node_messages
from .comm import Communicator, SubCommunicator
from .errors import (
    CollectiveTimeoutError,
    CorruptMessageError,
    DeadlockError,
    InjectedFault,
    RankFailedError,
    RankFailure,
    RetryExhaustedError,
    SimMpiError,
    SpmdError,
    VerificationError,
)
from .des import DesScheduler, DesWorld
from .faults import FAULT_KINDS, ChaosSchedule, FaultPlan, FaultSpec
from .nodes import FABRIC_HEADER_BYTES, NodeMap
from .requests import RecvRequest, Request, SendRequest, waitall, waitany
from .runtime import SpmdResult, run_spmd
from .stats import PhaseTraffic, TrafficStats
from .transport import TransportPolicy, World

__all__ = [
    "ALGORITHMS",
    "predicted_inter_node_messages",
    "Communicator",
    "SubCommunicator",
    "World",
    "DesScheduler",
    "DesWorld",
    "FABRIC_HEADER_BYTES",
    "NodeMap",
    "TransportPolicy",
    "Request",
    "SendRequest",
    "RecvRequest",
    "waitall",
    "waitany",
    "CollectiveTimeoutError",
    "CorruptMessageError",
    "DeadlockError",
    "InjectedFault",
    "RankFailedError",
    "RankFailure",
    "RetryExhaustedError",
    "SimMpiError",
    "SpmdError",
    "VerificationError",
    "FAULT_KINDS",
    "ChaosSchedule",
    "FaultPlan",
    "FaultSpec",
    "SpmdResult",
    "run_spmd",
    "PhaseTraffic",
    "TrafficStats",
]
