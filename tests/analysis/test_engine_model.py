"""The engine's per-series model memo and the pure Extra-P fits under it.

``AnalysisEngine.model`` is the one model memo: it must always return what
a fresh :func:`fit_model` over the current ``nprocs`` series returns, refit
only when an append extends that series, and hand out copies that callers
can mutate freely."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.engine import AnalysisEngine, core
from repro.analysis.extrap import Measurement, fit_model, fit_multi_term_model
from repro.ci import MetricsDatabase

BENCH, SYSTEM, FOM = "amg2023", "cts1", "total_time"


def _expected(db):
    """The oracle: a fresh fit over the series, or None when it is empty."""
    pairs = db.series(BENCH, SYSTEM, FOM, "nprocs", exclude_flaky=True)
    return str(fit_model(pairs)) if pairs else None


def _scaling(db, p, value, **manifest):
    db.record(BENCH, SYSTEM, f"scale{p}", FOM, value, "s",
              {"nprocs": str(p), **manifest})


def _linear(n=6):
    return [Measurement(p, -0.64 + 0.047 * p)
            for p in (2, 8, 32, 128, 512, 2048)[:n]]


@st.composite
def _appends(draw):
    """One record: mostly a sample of the modelled series, sometimes flaky,
    non-finite, without a usable x, of another FOM or another partition."""
    benchmark, system, fom = BENCH, SYSTEM, FOM
    kind = draw(st.sampled_from(["series"] * 4 + ["other"] * 3))
    if kind == "other":
        benchmark, system, fom = draw(st.sampled_from([
            (BENCH, SYSTEM, "walltime"), ("stream", SYSTEM, FOM),
            (BENCH, "tioga", FOM)]))
    nprocs = draw(st.sampled_from(["1", "2", "4", "8", "16", "64"] * 3
                                  + ["inf", None]))
    value = draw(st.floats(min_value=0.01, max_value=1e4)
                 if draw(st.integers(0, 9)) else
                 st.sampled_from([math.nan, math.inf, -math.inf, "nan"]))
    manifest = draw(st.sampled_from([{}] * 3 + [{"flaky": "true"},
                                                {"attempts": "2"}]))
    if nprocs is not None:
        manifest = dict(manifest, nprocs=nprocs)
    return benchmark, system, fom, value, manifest


class TestEngineModel:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_appends(), max_size=25))
    def test_equals_fresh_fit_after_every_append(self, stream):
        db = MetricsDatabase()
        engine = AnalysisEngine(db)
        assert engine.model(BENCH, SYSTEM, FOM) is None
        for benchmark, system, fom, value, manifest in stream:
            db.record(benchmark, system, "exp", fom, value, "s", manifest)
            model = engine.model(BENCH, SYSTEM, FOM)
            assert (None if model is None else str(model)) == _expected(db)

    def test_append_that_does_not_extend_series_does_not_refit(
            self, monkeypatch):
        calls = []

        def counting_fit(pairs):
            calls.append(len(pairs))
            return fit_model(pairs)

        monkeypatch.setattr(core, "fit_model", counting_fit)
        db = MetricsDatabase()
        engine = AnalysisEngine(db)
        for p in (2, 4, 8, 16):
            _scaling(db, p, 1.0 + 0.05 * p)
        first = str(engine.model(BENCH, SYSTEM, FOM))
        assert calls == [4]

        _scaling(db, 32, 99.0, flaky="true")            # flaky: excluded
        _scaling(db, 32, math.nan)                      # non-finite value
        db.record(BENCH, SYSTEM, "e", FOM, 5.0, "s", {"epoch": "1"})  # no x
        db.record(BENCH, SYSTEM, "e", "walltime", 5.0, "s", {"nprocs": "2"})
        db.record("stream", SYSTEM, "e", FOM, 5.0, "s", {"nprocs": "2"})
        assert str(engine.model(BENCH, SYSTEM, FOM)) == first
        assert str(engine.model(BENCH, SYSTEM, FOM)) == first
        assert calls == [4]

        _scaling(db, 32, 2.6)
        assert str(engine.model(BENCH, SYSTEM, FOM)) == _expected(db)
        assert calls == [4, 5]

    def test_mutating_returned_model_does_not_change_next_result(self):
        db = MetricsDatabase()
        engine = AnalysisEngine(db)
        for m in _linear():
            _scaling(db, int(m.p), m.value)
        expected = _expected(db)
        fitted = engine.model(BENCH, SYSTEM, FOM)    # fresh fit
        fitted.c0 = 12345.0
        fitted.measurements.clear()
        hit = engine.model(BENCH, SYSTEM, FOM)       # memo hit
        assert str(hit) == expected and hit.measurements
        hit.c1 = -1.0
        hit.measurements.clear()
        again = engine.model(BENCH, SYSTEM, FOM)
        assert str(again) == expected and again.measurements


class TestFitModel:
    def test_repeat_fits_identical(self):
        first = fit_model(_linear())
        second = fit_model(_linear())
        assert second is not first
        assert str(second) == str(first)
        assert (second.c0, second.c1, second.i, second.j) == \
            (first.c0, first.c1, first.i, first.j)

    def test_tuple_and_measurement_inputs_agree(self):
        tuples = fit_model([(2.0, 1.0), (4.0, 2.0), (8.0, 4.0)])
        measurements = fit_model([Measurement(2.0, 1.0), Measurement(4.0, 2.0),
                                  Measurement(8.0, 4.0)])
        assert str(tuples) == str(measurements)

    def test_restricted_exponent_space_honoured(self):
        ms = [Measurement(p, 3.0 + 0.5 * p * p) for p in (2, 4, 8, 16, 32)]
        full = fit_model(ms)
        restricted = fit_model(ms, exponents=[(1.0, 0)])
        assert (full.i, full.j) == (2.0, 0)
        assert (restricted.i, restricted.j) == (1.0, 0)

    def test_multi_term_repeat_fits_identical(self):
        ps = [2, 4, 8, 16, 32, 64, 256, 1024]
        ms = [Measurement(p, 1.0 + 2.0 * p + 30.0 * np.log2(p)) for p in ps]
        multi = fit_multi_term_model(ms)
        assert len(multi.terms) == 2 and not fit_model(ms).is_constant
        multi.terms.clear()
        again = fit_multi_term_model(ms)
        assert len(again.terms) == 2
        assert str(again) == str(fit_multi_term_model(ms))

    @pytest.mark.parametrize("max_terms", [3, 5])
    def test_max_terms_above_two_rejected(self, max_terms):
        with pytest.raises(ValueError, match="max_terms"):
            fit_multi_term_model(_linear(), max_terms=max_terms)
