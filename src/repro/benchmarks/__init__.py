"""Runnable benchmark implementations (paper §4): saxpy, AMG2023 (a real
smoothed-aggregation AMG solver), STREAM, and OSU-style collectives —
all executing real NumPy/SciPy numerics, with SimMPI supplying collective
semantics and modeled communication time.

``amg`` is imported on first use (PEP 562): it pulls in ``scipy.sparse``,
which no saxpy or STREAM campaign needs.
"""

import importlib

from .osu import OsuResult, run_collective
from .quicksilver import QuicksilverResult, run_quicksilver
from .saxpy import SaxpyResult, run_saxpy, saxpy_kernel
from .simmpi import SimWorld
from .stream import StreamResult, run_stream

__all__ = [
    "OsuResult",
    "QuicksilverResult",
    "SaxpyResult",
    "SimWorld",
    "StreamResult",
    "amg",
    "run_collective",
    "run_quicksilver",
    "run_saxpy",
    "run_stream",
    "saxpy_kernel",
]


def __getattr__(name):
    if name == "amg":
        return importlib.import_module(f"{__name__}.amg")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
