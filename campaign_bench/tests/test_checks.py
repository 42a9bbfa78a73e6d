"""The output checks' own logic, against the program's detector."""

import dataclasses
import math

import pytest

from repro.analysis.engine import AnalysisEngine
from repro.ci import MetricsDatabase
from worker import event_in_data, fom_ok

DETECTOR = {"threshold": 0.30, "window": 3}


def scan(values, flaky_epochs=()):
    db = MetricsDatabase()
    for epoch, value in enumerate(values):
        for k in range(2):
            flaky = epoch in flaky_epochs
            db.record(benchmark="stream", system="cts1", experiment=f"x{k}",
                      fom_name="triad_bw", value=value + 0.5 * k,
                      units="MB/s", manifest={
                          "epoch": str(epoch),
                          "attempts": "2" if flaky else "1",
                          "flaky": "true" if flaky else "false"})
    engine = AnalysisEngine(db, **DETECTOR)
    try:
        events = engine.scan([("stream", "cts1", "triad_bw", True)])
    finally:
        engine.close()
    return events, db.to_records()


def test_event_in_data_recomputes_the_detector():
    # a real drop at epoch 4, with a retried sample the detector leaves out
    values = [100, 101, 99, 100, 60, 58, 61, 100, 99, 100, 101, 100]
    events, records = scan(values, flaky_epochs={2})
    assert [e.epoch for e in events] == [4.0]
    assert event_in_data(events[0], records, DETECTOR)


def test_event_in_data_rejects_an_event_the_data_do_not_show():
    values = [100, 101, 99, 100, 60, 58, 61, 100, 99, 100, 101, 100]
    events, records = scan(values)
    event = events[0]
    assert not event_in_data(
        dataclasses.replace(event, baseline=event.baseline * 1.2), records,
        DETECTOR)
    assert not event_in_data(dataclasses.replace(event, epoch=9.0), records,
                             DETECTOR)
    assert not event_in_data(event, records, dict(DETECTOR, threshold=0.5))


@pytest.mark.parametrize("value, ok", [
    (1.5, True), (0.0, False), (-2.0, False), (math.inf, False),
    (math.nan, False), ("3.2", True), ("nan", False), ("-1", False),
    ("Kernel done", True), ("  ", False), (True, False),
])
def test_fom_ok(value, ok):
    assert fom_ok(value) is ok
