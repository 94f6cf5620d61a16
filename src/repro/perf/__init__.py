"""Performance models and projections (Section 7.4 of the paper)."""

from .model import BYTES_PER_POINT, TimeBreakdown, WeakScalingModel
from .weakscaling import SweepPoint, WeakScalingSweep, run_sweep
from .projection import ProjectionModel, projection_curve

__all__ = [
    "BYTES_PER_POINT",
    "TimeBreakdown",
    "WeakScalingModel",
    "SweepPoint",
    "WeakScalingSweep",
    "run_sweep",
    "ProjectionModel",
    "projection_curve",
]
