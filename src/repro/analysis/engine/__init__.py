"""Incremental analysis engine (exaCB-style incremental result analysis).

``SeriesState`` — incremental regression statistics, bit-identical to batch
recomputation.  ``AnalysisEngine`` — feeds per-series states from the
columnar ``MetricsDatabase`` and memoizes Extra-P fits, with per-stage
Profiler timings.
"""

from .core import AnalysisEngine
from .incremental import SeriesState

__all__ = [
    "AnalysisEngine",
    "SeriesState",
]
