"""repro.check — correctness tooling for the SOI FFT codebase.

Two complementary auditors over the same invariant (the transforms
compute what they claim, identically, under every interleaving):

- :mod:`repro.check.schedules` — a seeded schedule fuzzer for the
  simulated cluster: permutes message-delivery and thread-wakeup order
  across replays and asserts bitwise-identical outputs, traffic
  statistics and trace-span structure.  :mod:`repro.check.hb` rides
  along, flagging happens-before races on shared state (the plan and
  table caches) via vector clocks.
- :mod:`repro.check.conformance` — a differential table of typed rows
  (entry point, world, library, dtype, options, oracle, tolerance kind)
  holding every transform entry point to its oracle: NumPy within an
  ulp or Theorem-2 budget, or the sequential/plain run bit for bit.

``python -m repro check`` runs both and emits one JSON report; the CI
``check`` job gates on it.
"""

from .conformance import (
    ConformanceReport,
    ConformanceRow,
    EXACT_ULP_FACTOR,
    SOI_BUDGET_SAFETY,
    edge_geometries,
    exact_tolerance,
    run_conformance,
    soi_tolerance,
)
from .hb import Access, HbTracker, install_cache_observers, touch_caches
from .schedules import (
    FuzzReport,
    ReplayMismatch,
    ScheduleController,
    fuzz_distributed_soi,
    replay_interleavings,
)

__all__ = [
    "Access",
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
    "touch_caches",
]
