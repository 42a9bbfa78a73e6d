"""Incremental regression state vs. the batch reference detector in
``regression_oracle`` — the equivalence is bit-identical (dataclass
equality over float fields), not approximate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import RegressionDetector, SeriesState
from repro.analysis.engine import AnalysisEngine
from repro.ci import MetricsDatabase
from tests.analysis import regression_oracle as oracle


def _history(n_epochs=16, step_at=10, noise=0.03):
    """Deterministic noisy series with a 20% step regression."""
    rng = np.random.default_rng(42)
    series = []
    for epoch in range(n_epochs):
        base = 100.0 if epoch < step_at else 80.0
        for _ in range(3):
            series.append((float(epoch), base * (1 + noise * rng.standard_normal())))
    return series


def _state(det, higher_is_better=None):
    """A SeriesState configured like ``det``."""
    return SeriesState(threshold=det.threshold, window=det.window,
                       higher_is_better=(det.higher_is_better
                                         if higher_is_better is None
                                         else higher_is_better))


def _batch(det, series, metric="m"):
    """The batch reference: group raw samples per epoch in sorted order,
    then run the reference detector."""
    return oracle.detect_like(det, oracle.epoch_means(series), metric)


class TestBitIdentity:
    def test_one_shot_equals_batch(self):
        det = RegressionDetector(threshold=0.10, window=3)
        series = _history()
        state = _state(det)
        state.extend(series)
        assert state.events("m") == _batch(det, series)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7])
    def test_chunked_feed_equals_batch(self, chunk):
        det = RegressionDetector(threshold=0.10, window=3)
        series = _history()
        state = _state(det)
        for i in range(0, len(series), chunk):
            state.extend(series[i:i + chunk])
            # at every intermediate point the state equals a full rescan of
            # everything fed so far
            assert state.events("m") == _batch(det, series[:i + chunk])

    def test_late_samples_for_old_epochs(self):
        # a sample arriving for an already-scored epoch must shift the
        # affected suffix exactly as a batch rescan would
        det = RegressionDetector(threshold=0.10, window=3)
        series = _history()
        late = [(2.0, 60.0), (11.0, 95.0)]
        state = _state(det)
        state.extend(series)
        state.extend(late)
        assert state.events("m") == _batch(det, series + late)

    def test_lower_is_better_metrics(self):
        det = RegressionDetector(threshold=0.10, window=2,
                                 higher_is_better=False)
        series = [(float(e), 10.0 if e < 6 else 13.0) for e in range(12)]
        state = _state(det)
        for pair in series:
            state.extend([pair])
        events = state.events("walltime")
        assert events == oracle.detect_like(det, series, "walltime")
        assert len(events) == 1 and events[0].ratio > 1.0

    def test_short_series_reports_nothing(self):
        det = RegressionDetector(window=3)
        state = _state(det)
        state.extend([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
        assert state.events() == []

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=12),
                  st.floats(min_value=1.0, max_value=200.0,
                            allow_nan=False, allow_infinity=False)),
        min_size=0, max_size=40),
        st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_property_random_feeds(self, pairs, window):
        det = RegressionDetector(threshold=0.10, window=window)
        series = [(float(e), v) for e, v in pairs]
        state = _state(det)
        state.extend(series)
        assert state.events("m") == _batch(det, series)
        assert state.series() == oracle.epoch_means(series)
        assert det.detect(series, "m") == state.events("m")


class TestEngineScanParity:
    TARGETS = [("stream", "cts1", "triad_bw", True),
               ("stream", "tioga", "triad_bw", True),
               ("saxpy", "cts1", "walltime", False)]

    def _record_epoch(self, db, epoch):
        rng = np.random.default_rng(1000 + epoch)
        for benchmark, system, fom, hib in self.TARGETS:
            base = 100.0 if hib else 10.0
            if epoch >= 9:
                base *= 0.8 if hib else 1.3
            for exp in ("a", "b"):
                manifest = {"epoch": str(epoch)}
                if epoch == 4 and exp == "b":
                    manifest["flaky"] = "true"
                db.record(benchmark, system, exp, fom,
                          base * (1 + 0.02 * rng.standard_normal()),
                          "u", manifest)

    def test_scan_equals_batch_after_every_epoch(self):
        db = MetricsDatabase()
        engine = AnalysisEngine(db, threshold=0.10, window=3)
        for epoch in range(14):
            self._record_epoch(db, epoch)
            got = engine.scan(self.TARGETS)
            expected = []
            for benchmark, system, fom, hib in self.TARGETS:
                expected.extend(oracle.detect(
                    db.epoch_series(benchmark, system, fom),
                    f"{benchmark}/{system}/{fom}", 0.10, 3, hib))
            assert got == sorted(expected, key=lambda e: e.epoch)
        assert got  # the injected step was actually reported

    def test_detect_consumes_each_sample_once(self):
        db = MetricsDatabase()
        engine = AnalysisEngine(db, threshold=0.10, window=3)
        for epoch in range(12):
            self._record_epoch(db, epoch)
        engine.scan(self.TARGETS)
        state = engine._state(("stream", "cts1", "triad_bw", True))
        seen = state.samples_seen
        engine.scan(self.TARGETS)  # no new data: nothing re-absorbed
        assert state.samples_seen == seen

    def test_profiler_records_stage_timings(self):
        db = MetricsDatabase()
        engine = AnalysisEngine(db, threshold=0.10, window=3)
        for epoch in range(8):
            self._record_epoch(db, epoch)
        engine.scan(self.TARGETS)
        engine.scan(self.TARGETS)
        regions = engine.caliper.snapshot().regions()
        assert regions["analysis:scan"].visits == 2
        assert regions["analysis:scan/analysis:detect"].visits == 2 * len(
            self.TARGETS)


class TestStateValidation:
    def test_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            SeriesState(threshold=1.5)

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            SeriesState(window=0)
