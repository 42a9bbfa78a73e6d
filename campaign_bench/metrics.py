"""The benchmark's own arithmetic over per-epoch timings."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: fewest samples a reported tail percentile must have beyond it
TAIL_BEYOND = 10


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> Tuple[int, int]:
    """The highest whole percentile ``p`` in 50..99 with at least ``beyond``
    of ``n`` samples above it, and that count.

    The p-th percentile is the nearest-rank sample ``ceil(p * n / 100)``, so
    ``n - ceil(p * n / 100)`` samples lie beyond it.  When even the median
    has fewer than ``beyond`` samples above it, the median is returned.
    """
    if n < 1:
        raise ValueError("no samples")
    best = 50
    for p in range(50, 100):
        if n - _rank(p, n) >= beyond:
            best = p
    return best, n - _rank(best, n)


def _rank(p: int, n: int) -> int:
    """``ceil(p * n / 100)`` in exact integer arithmetic."""
    return -(-p * n // 100)


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile, consistent with :func:`tail_percentile`."""
    ordered = sorted(values)
    return ordered[max(0, _rank(p, len(ordered)) - 1)]


def epoch_growth(times: Sequence[float], early: Tuple[int, int] = (10, 30),
                 last: int = 20) -> float:
    """Mean epoch time over the last ``last`` epochs divided by the mean
    over epochs ``early[0]`` up to (not including) ``early[1]``.  1.0 means
    an epoch costs the same however long the history."""
    lo, hi = early
    if not (0 <= lo < hi <= len(times)) or not (0 < last <= len(times)):
        raise ValueError(
            f"{len(times)} epochs cannot give growth over "
            f"epochs {lo}..{hi - 1} and the last {last}")
    return statistics.fmean(times[-last:]) / statistics.fmean(times[lo:hi])


def growth_windows(epochs: int) -> Tuple[Tuple[int, int], int]:
    """The windows :func:`epoch_growth` uses for a history of ``epochs``:
    epochs 10-30 and the last 20 from 40 epochs on, shrunk in proportion
    for the tiny histories of the quick mode."""
    if epochs >= 40:
        return (10, 30), 20
    lo = epochs // 4
    return (lo, max(lo + 1, epochs // 2)), max(1, epochs // 4)

