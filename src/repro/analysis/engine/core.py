"""The analysis engine: incremental detectors + cached model fits over the
columnar :class:`~repro.ci.metricsdb.MetricsDatabase`, behind one object.

One :class:`AnalysisEngine` wraps a database and keeps every derived
analysis artifact warm between epochs:

* :meth:`detect` feeds only a series' *new* samples into its persistent
  :class:`~repro.analysis.regression.SeriesState` — per-epoch regression
  scans stop rescanning history;
* :meth:`scan` runs that over many (benchmark, system, fom) series and
  :meth:`diagnose` ranks fault hypotheses from a scan's events;
* :meth:`model` fits Extra-P over a database series through the memoized
  :func:`fit_model`/:func:`fit_multi_term_model` — unchanged series hit.

Every stage is a region of a :class:`~repro.analysis.caliper.CaliperSession`
(``analysis:scan`` > ``analysis:detect``, ``analysis:diagnose``,
``analysis:model``), so the speedup claims in
``benchmarks/bench_analysis.py`` decompose per stage.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..caliper import CaliperSession
from ..diagnosis import diagnose as _diagnose
from ..extrap import (MultiTermModel, _copy_multi, _copy_single, fit_model,
                      fit_multi_term_model)
from ..regression import RegressionEvent, SeriesState

__all__ = ["AnalysisEngine"]

#: (benchmark, system, fom_name, higher_is_better)
Target = Tuple[str, str, str, bool]


def _copy_model(model):
    """Defensive copy on memo hits so callers can't poison the entry."""
    if isinstance(model, MultiTermModel):
        return _copy_multi(model)
    return _copy_single(model)


class AnalysisEngine:
    """Incremental analysis over a metrics database.  Regression series
    are indexed by the ``epoch`` manifest key; retried (flaky) samples are
    left out."""

    def __init__(self, db, threshold: float = 0.10, window: int = 3,
                 caliper: Optional[CaliperSession] = None):
        self.db = db
        self.threshold = threshold
        self.window = window
        self.caliper = caliper or CaliperSession()
        #: Target -> SeriesState, and how many partition rows it has seen
        self._states: Dict[Target, SeriesState] = {}
        self._consumed: Dict[Target, int] = {}
        #: model args -> (partition rows consumed, fitted model)
        self._model_memo: Dict[tuple, Any] = {}

    # -- regression detection -------------------------------------------
    def _state(self, target: Target) -> SeriesState:
        state = self._states.get(target)
        if state is None:
            state = self._states[target] = SeriesState(
                threshold=self.threshold,
                window=self.window,
                higher_is_better=target[3],
            )
            self._consumed[target] = 0
        return state

    def detect(self, benchmark: str, system: str, fom_name: str,
               higher_is_better: bool = True) -> List[RegressionEvent]:
        """Current regression events for one series, absorbing only the
        samples recorded since this target was last examined."""
        target: Target = (benchmark, system, fom_name, bool(higher_is_better))
        state = self._state(target)
        with self.caliper.region("analysis:detect"):
            consumed = self._consumed[target]
            partition = self.db.partition_rows(system, benchmark)
            if partition.size > consumed:
                rows = self.db.series_rows(
                    benchmark, system, fom_name, "epoch",
                    exclude_flaky=True, start=consumed,
                )
                if rows.size:
                    epochs, _ = self.db.manifest_column("epoch")
                    values = self.db.column("value")
                    state.extend(zip(epochs[rows].tolist(),
                                     values[rows].tolist()))
                self._consumed[target] = int(partition.size)
            return state.events(metric=f"{benchmark}/{system}/{fom_name}")

    def scan(self, targets: Sequence[Target]) -> List[RegressionEvent]:
        """Detect over many series; events come back sorted by epoch
        (stable in target order)."""
        with self.caliper.region("analysis:scan"):
            events = [e for t in targets for e in self.detect(*t)]
        return sorted(events, key=lambda e: e.epoch)

    # -- diagnosis -------------------------------------------------------
    def diagnose(self, targets: Sequence[Target],
                 events: Sequence[RegressionEvent]) -> List:
        """Rank subsystem-fault hypotheses from ``events``, a
        :meth:`scan` of ``targets``: the cross-series regression
        fingerprint."""
        with self.caliper.region("analysis:diagnose"):
            return _diagnose(events, [t[2] for t in targets])

    # -- model fitting ---------------------------------------------------
    def model(self, benchmark: str, system: str, fom_name: str,
              x_key: str = "nprocs", multi: bool = False,
              exclude_flaky: bool = True):
        """Extra-P model of a database series, memoized twice over:
        per-series consumption tracking (like :meth:`detect`'s) answers "did
        any new partition row extend *this* series?" in O(new rows) and
        returns the last model untouched when none did; actual refits go
        through the process-global fingerprint-keyed cache shared with
        :func:`fit_model`.

        Returns ``None`` when the series has no measurements yet."""
        key = (benchmark, system, fom_name, x_key, bool(multi),
               bool(exclude_flaky))
        with self.caliper.region("analysis:model"):
            partition = self.db.partition_rows(system, benchmark)
            entry = self._model_memo.get(key)
            if entry is not None:
                consumed, cached = entry
                if consumed == partition.size or not self.db.series_rows(
                    benchmark, system, fom_name, x_key,
                    exclude_flaky=exclude_flaky, start=consumed,
                ).size:
                    self._model_memo[key] = (int(partition.size), cached)
                    return _copy_model(cached)
            pairs = self.db.series(benchmark, system, fom_name, x_key,
                                   exclude_flaky=exclude_flaky)
            if not pairs:
                return None
            fitted = (fit_multi_term_model(pairs) if multi
                      else fit_model(pairs))
            self._model_memo[key] = (int(partition.size), _copy_model(fitted))
            return fitted

    def close(self) -> None:
        """Nothing to release: the engine holds no threads or files."""

    def __repr__(self):
        return (f"AnalysisEngine({len(self.db)} rows, "
                f"{len(self._states)} tracked series)")
