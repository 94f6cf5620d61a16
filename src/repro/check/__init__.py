"""repro.check — correctness tooling for the SOI FFT codebase.

Two complementary auditors over the same invariant (the transforms
compute what they claim, identically, under every interleaving):

- :mod:`repro.check.schedules` — a seeded schedule fuzzer for the
  simulated cluster: permutes message-delivery and thread-wakeup order
  across replays and asserts bitwise-identical outputs, traffic
  statistics and trace-span structure.  :mod:`repro.check.hb` rides
  along, flagging happens-before races on shared state (the plan
  caches) via vector clocks.
- :mod:`repro.check.conformance` — a differential registry running
  every transform entry point (one-shot/planned, forward/inverse,
  sequential/distributed, transport/``trace=``) against its NumPy
  oracle and the Theorem-2 accuracy budget.

``python -m repro check`` runs both and emits one JSON report; the CI
``check-smoke`` job gates on it.
"""

from .conformance import (
    CONFORMANCE_GROUPS,
    ConformanceReport,
    ConformanceRow,
    EXACT_ULP_FACTOR,
    SOI_BUDGET_SAFETY,
    edge_geometries,
    exact_tolerance,
    run_conformance,
    soi_tolerance,
)
from .hb import Access, HbTracker, install_cache_observers
from .schedules import (
    FuzzReport,
    ReplayMismatch,
    ScheduleController,
    fuzz_distributed_soi,
    replay_interleavings,
)

__all__ = [
    "Access",
    "CONFORMANCE_GROUPS",
    "ConformanceReport",
    "ConformanceRow",
    "EXACT_ULP_FACTOR",
    "FuzzReport",
    "HbTracker",
    "ReplayMismatch",
    "SOI_BUDGET_SAFETY",
    "ScheduleController",
    "edge_geometries",
    "exact_tolerance",
    "fuzz_distributed_soi",
    "install_cache_observers",
    "replay_interleavings",
    "run_conformance",
    "soi_tolerance",
]
