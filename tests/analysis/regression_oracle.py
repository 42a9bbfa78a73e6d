"""Reference batch regression detector for differential tests.

This is the sliding-window scoring and run-collapse algorithm written the
plain batch way: sort the series, score every window position from
scratch, then collapse each contiguous run of bad positions to its
most-deviant window.  Every sample is its own window position, so callers
pass one (epoch, mean) point per epoch.  ``SeriesState`` and
``RegressionDetector.detect`` must produce events that compare equal to
this, float for float.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.regression import RegressionEvent


def detect(series: Sequence[Tuple[float, float]], metric: str = "metric",
           threshold: float = 0.10, window: int = 3,
           higher_is_better: bool = True) -> List[RegressionEvent]:
    pts = sorted(series)
    n = len(pts)
    if n < 2 * window:
        return []
    epochs = np.array([p[0] for p in pts], dtype=float)
    values = np.array([p[1] for p in pts], dtype=float)

    # Score every window position, then collapse each contiguous run of
    # bad positions to its most-deviant window — the first position of a
    # cliff mixes pre- and post-change samples, so reporting it directly
    # would misstate both the epoch and the magnitude.
    scored = []
    for i in range(window, n - window + 1):
        baseline = float(np.mean(values[:i]))
        if baseline == 0:
            continue
        observed = float(np.mean(values[i:i + window]))
        ratio = observed / baseline
        bad = (ratio < 1 - threshold) if higher_is_better \
            else (ratio > 1 + threshold)
        scored.append((i, baseline, observed, ratio, bad))

    events: List[RegressionEvent] = []
    run: List[tuple] = []

    def flush_run():
        if not run:
            return
        extreme = min(run, key=lambda s: s[3]) if higher_is_better \
            else max(run, key=lambda s: s[3])
        i, baseline, observed, ratio, _ = extreme
        events.append(RegressionEvent(
            metric=metric,
            epoch=float(epochs[i]),
            baseline=baseline,
            observed=observed,
            ratio=ratio,
        ))
        run.clear()

    for entry in scored:
        if entry[4]:
            run.append(entry)
        else:
            flush_run()
    flush_run()
    return events


def detect_like(detector, series, metric: str = "metric"):
    """:func:`detect` configured like ``detector``."""
    return detect(series, metric, detector.threshold, detector.window,
                  detector.higher_is_better)


def epoch_means(series: Sequence[Tuple[float, float]]):
    """One (epoch, mean) point per epoch, each epoch's samples averaged in
    sorted order."""
    by_epoch = {}
    for epoch, value in sorted(series):
        by_epoch.setdefault(epoch, []).append(value)
    return [(e, float(np.mean(v))) for e, v in sorted(by_epoch.items())]
