"""Incremental analysis engine (exaCB-style incremental result analysis).

``AnalysisEngine`` feeds one ``SeriesState`` per series from the columnar
``MetricsDatabase`` and memoizes Extra-P fits; each stage is a Caliper
region of the session it is given.  ``SeriesState`` lives in
:mod:`repro.analysis.regression` and is re-exported here.
"""

from ..regression import SeriesState
from .core import AnalysisEngine

__all__ = [
    "AnalysisEngine",
    "SeriesState",
]
