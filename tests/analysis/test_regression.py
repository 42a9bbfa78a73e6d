"""Tests for the regression detector."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.regression import RegressionDetector, RegressionEvent
from repro.ci import MetricsDatabase
from tests.analysis import regression_oracle as oracle


def series(values):
    return list(enumerate(values))


class TestDetector:
    def test_flat_series_clean(self):
        d = RegressionDetector(threshold=0.1, window=3)
        assert d.detect(series([100.0] * 12)) == []

    def test_drop_detected(self):
        d = RegressionDetector(threshold=0.1, window=3, higher_is_better=True)
        events = d.detect(series([100.0] * 6 + [70.0] * 6), metric="bw")
        assert len(events) == 1
        event = events[0]
        assert event.metric == "bw"
        assert event.ratio < 0.9
        assert 4 <= event.epoch <= 7  # localized near the change point

    def test_rise_is_fine_for_throughput(self):
        d = RegressionDetector(threshold=0.1, window=3, higher_is_better=True)
        assert d.detect(series([100.0] * 6 + [130.0] * 6)) == []

    def test_latency_direction(self):
        d = RegressionDetector(threshold=0.1, window=3, higher_is_better=False)
        assert d.detect(series([10.0] * 6 + [14.0] * 6))
        assert d.detect(series([10.0] * 6 + [7.0] * 6)) == []

    def test_small_change_below_threshold(self):
        d = RegressionDetector(threshold=0.2, window=3)
        assert d.detect(series([100.0] * 6 + [90.0] * 6)) == []

    def test_consecutive_windows_collapsed(self):
        d = RegressionDetector(threshold=0.1, window=2)
        events = d.detect(series([100.0] * 5 + [50.0] * 10))
        assert len(events) == 1

    def test_two_separate_regressions(self):
        d = RegressionDetector(threshold=0.15, window=2)
        values = [100.0] * 4 + [80.0] * 4 + [100.0] * 4 + [60.0] * 4
        # recovery in between resets the detector; the later drop re-fires
        events = d.detect(series(values))
        assert len(events) >= 2

    def test_too_short_series(self):
        d = RegressionDetector(window=3)
        assert d.detect(series([100.0] * 5)) == []

    def test_noise_tolerance(self):
        import numpy as np

        rng = np.random.default_rng(0)
        clean = 100.0 * (1.0 + rng.normal(0, 0.02, size=20))
        d = RegressionDetector(threshold=0.1, window=3)
        assert d.detect(series(list(clean))) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RegressionDetector(threshold=0.0)
        with pytest.raises(ValueError):
            RegressionDetector(window=0)

    def test_event_str(self):
        e = RegressionEvent("bw", 5.0, 100.0, 70.0, 0.7)
        assert "dropped 30.0%" in str(e)
        assert "epoch 5" in str(e)

    def test_detect_over_db_epoch_series(self):
        db = MetricsDatabase()
        for epoch in range(8):
            value = 100.0 if epoch < 4 else 60.0
            for exp in ("a", "b"):
                db.record("saxpy", "cts1", exp, "bandwidth",
                          value, "GB/s", {"epoch": str(epoch)})
        d = RegressionDetector(threshold=0.1, window=2)
        events = d.detect(db.epoch_series("saxpy", "cts1", "bandwidth"),
                          metric="saxpy/cts1/bandwidth")
        assert len(events) == 1
        assert events[0].metric == "saxpy/cts1/bandwidth"


class TestDuplicateEpochs:
    """Samples that share an epoch are one window position: ``detect`` on
    raw samples equals ``detect`` on their per-epoch means."""

    def test_step_with_uneven_samples_per_epoch(self):
        # epoch 0 has three samples.  Counted as three positions they would
        # form a baseline window of their own (a false 20% drop at epoch 1)
        # and weigh epoch 0 three times in every later baseline.
        raw = ([(0, 120.0)] * 3 + [(e, 96.0) for e in range(1, 6)]
               + [(e, v) for e in range(6, 10) for v in (82.0, 78.0)])
        d = RegressionDetector(threshold=0.15, window=2)
        events = d.detect(raw, "bw")
        assert events == d.detect(oracle.epoch_means(raw), "bw")
        assert events == oracle.detect_like(d, oracle.epoch_means(raw), "bw")
        assert [(e.epoch, e.baseline, e.observed) for e in events] == [
            (6.0, 100.0, 80.0)]

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=10),
                  st.floats(min_value=1.0, max_value=200.0,
                            allow_nan=False, allow_infinity=False)),
        max_size=40),
        st.integers(min_value=1, max_value=4),
        st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_property_raw_equals_epoch_means(self, pairs, window, hib):
        d = RegressionDetector(threshold=0.1, window=window,
                               higher_is_better=hib)
        means = oracle.epoch_means(pairs)
        assert d.detect(pairs, "m") == d.detect(means, "m")
        assert d.detect(pairs, "m") == oracle.detect_like(d, means, "m")


@given(
    st.floats(min_value=10.0, max_value=1000.0),
    st.floats(min_value=0.3, max_value=0.7),
    st.integers(min_value=4, max_value=10),
)
@settings(max_examples=30, deadline=None)
def test_detector_always_finds_big_cliff(baseline, drop_factor, pre_len):
    """Property: a clean >=30% cliff is always detected, never missed."""
    values = [baseline] * pre_len + [baseline * drop_factor] * 6
    d = RegressionDetector(threshold=0.2, window=3)
    events = d.detect(series(values))
    assert len(events) == 1
    assert events[0].ratio == pytest.approx(drop_factor, rel=0.25)


@given(st.floats(min_value=1.0, max_value=1e6), st.integers(8, 24))
@settings(max_examples=20, deadline=None)
def test_detector_never_fires_on_constants(value, n):
    d = RegressionDetector(threshold=0.05, window=3)
    assert d.detect(series([value] * n)) == []


class TestNonFiniteSamples:
    """One non-finite sample must not blind the detector: NaN and ±inf
    are dropped at ingest, so every consumer of the series skips them."""

    def _cliff_db(self, first_value):
        # 100 -> 50 at epoch 8, 16 epochs, one sample an epoch
        db = MetricsDatabase()
        for epoch in range(16):
            value = first_value if epoch == 0 else (
                100.0 if epoch < 8 else 50.0)
            db.record("stream", "cts1", "x", "triad_bw", value, "MB/s",
                      {"epoch": str(epoch)})
        return db

    def _events(self, db):
        from repro.analysis.engine import AnalysisEngine

        batch = oracle.detect(db.epoch_series("stream", "cts1", "triad_bw"),
                              "stream/cts1/triad_bw")
        incremental = AnalysisEngine(db).scan(
            [("stream", "cts1", "triad_bw", True)])
        assert incremental == batch
        return batch

    def test_cliff_found_on_clean_series(self):
        events = self._events(self._cliff_db(100.0))
        assert [e.epoch for e in events] == [8.0]

    @pytest.mark.parametrize("bad", ["nan", float("nan"), float("inf"),
                                     "-inf", "1e999"])
    def test_cliff_found_after_non_finite_first_sample(self, bad):
        db = self._cliff_db(bad)
        events = self._events(db)
        assert [e.epoch for e in events] == [8.0]
        assert events[0].ratio == pytest.approx(0.5)
        # the sample is kept as recorded, but left out of every analysis
        assert db.to_records()[0]["value"] is bad
        assert db.series("stream", "cts1", "triad_bw", "epoch")[0][0] == 1.0
        assert db.aggregate("triad_bw")["cts1"]["count"] == 15
