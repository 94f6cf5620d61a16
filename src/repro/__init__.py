"""repro — reproduction of "A framework for low-communication 1-D FFT".

Tang, Park, Kim, Petrov (Intel), SC 2012 best paper / Scientific
Programming 21 (2013) 181-195.

The package implements the SOI (Segment-Of-Interest) FFT — a family of
single-all-to-all, in-order, O(N log N) DFT factorisations — together
with every substrate it depends on: a node-local FFT library
(:mod:`repro.dft`), a message-passing runtime with traffic accounting
(:mod:`repro.simmpi`), cluster interconnect models (:mod:`repro.cluster`),
the triple-all-to-all baseline algorithms (:mod:`repro.parallel`), and
the paper's analytic performance model (:mod:`repro.perf`).

Quickstart::

    import numpy as np
    from repro import SoiPlan, soi_fft

    n, p = 4096, 8                  # N data points, P segments
    plan = SoiPlan(n=n, p=p)        # beta=1/4, full-accuracy window
    x = np.random.default_rng(0).standard_normal(n) + 0j
    y = soi_fft(x, plan)            # ~ np.fft.fft(x) to ~13-14 digits

Only NumPy and :mod:`repro.core` (the quickstart API above) load with
``import repro``.  The other exported names and the subpackages load on
first access (PEP 562 ``__getattr__``), so a caller that only wants
:func:`soi_fft` does not pay for the runtime, the tracer or the checker.
"""

import importlib

from ._version import __version__
from .core import (
    SoiPlan,
    TauSigmaWindow,
    GaussianWindow,
    design_window,
    soi_fft,
    soi_ifft,
    soi_fft2,
    soi_segment,
    snr_db,
)

# Exported name -> the subpackage that defines it, imported on first access.
_LAZY_NAMES = {
    "run_spmd": "simmpi",
    "ChaosSchedule": "simmpi",
    "FaultPlan": "simmpi",
    "TransportPolicy": "simmpi",
    "soi_fft_distributed": "parallel",
    "transpose_fft_distributed": "parallel",
    "TraceCostModel": "trace",
    "TraceRecorder": "trace",
    "HbTracker": "check",
    "ScheduleController": "check",
    "replay_interleavings": "check",
    "run_conformance": "check",
}
# Subpackages reachable as attributes of ``repro`` without an import of their own.
_LAZY_SUBPACKAGES = frozenset({"check", "cluster", "nufft", "parallel", "simmpi", "trace"})

__all__ = [
    "__version__",
    "SoiPlan",
    "TauSigmaWindow",
    "GaussianWindow",
    "design_window",
    "soi_fft",
    "soi_ifft",
    "soi_fft2",
    "soi_segment",
    "snr_db",
    *_LAZY_NAMES,
]


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        value = getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    elif name in _LAZY_SUBPACKAGES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_NAMES) | _LAZY_SUBPACKAGES)
