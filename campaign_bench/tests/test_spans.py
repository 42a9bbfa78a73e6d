"""Self time, busy time and thread parenting of the benchmark's spans."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import Span, Tracer, covered, instrument, layer_totals, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == pytest.approx(5)
    # clipped to the parent, disjoint and contained intervals
    assert covered(2, 6, [(0, 3), (5, 9), (3.5, 4)]) == pytest.approx(2.5)
    assert covered(0, 10, [(1, 9), (2, 3)]) == pytest.approx(8)


def test_self_time_nested_children():
    spans = [
        Span(0, "core.epoch", None, 0.0, 10.0),
        Span(1, "ramble.setup", 0, 1.0, 4.0),
        Span(2, "spack.install", 1, 2.0, 3.0),
        Span(3, "ci.ingest", 0, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_overlapping_thread_children():
    # two pool threads run children of one install span at the same time:
    # their union (2..7), not their sum, is subtracted
    spans = [
        Span(0, "spack.install", None, 0.0, 10.0),
        Span(1, "perf.fingerprint", 0, 2.0, 6.0),
        Span(2, "perf.fingerprint", 0, 3.0, 7.0),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)
    totals = layer_totals(spans)
    assert totals["spack.install"]["self_s"] == pytest.approx(5.0)
    # busy time is per thread, so the parallel children add up
    assert totals["perf.fingerprint"]["busy_s"] == pytest.approx(8.0)


def test_busy_counts_same_name_nesting_once():
    spans = [
        Span(0, "perf.fingerprint", None, 0.0, 4.0),
        Span(1, "perf.fingerprint", 0, 1.0, 2.0),
        Span(2, "perf.store", 1, 1.2, 1.4),
    ]
    totals = layer_totals(spans)
    assert totals["perf.fingerprint"]["busy_s"] == pytest.approx(4.0)
    assert totals["perf.fingerprint"]["self_s"] == pytest.approx(3.0 + 0.8)
    assert totals["perf.store"]["busy_s"] == pytest.approx(0.2)


def test_pool_threads_are_parented_to_the_calling_span():
    tracer = Tracer()
    undo = instrument(tracer, methods=(), functions=())
    child = tracer.wrap("child", lambda: time.sleep(0.05))
    try:
        outer = tracer.begin("outer")
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(child) for _ in range(2)]
            list(pool.map(lambda _: child(), range(2)))
            for f in futures:
                f.result()
        tracer.end(outer)
        # a span opened on a pool thread after the submitting span closed
        # gets no stale parent
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(child).result()
    finally:
        undo()
    children = [s for s in tracer.spans if s.name == "child"]
    assert len(children) == 5
    assert [s.parent for s in children[:4]] == [outer.id] * 4
    assert children[4].parent is None
    outer_self = self_times(tracer.spans)[outer.id]
    # the four 50 ms children ran two at a time, covering at least 100 ms
    assert outer_self <= outer.duration - 0.09
    assert outer_self >= 0


def test_per_thread_stacks_do_not_interleave():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work(name):
        span = tracer.begin(name)
        barrier.wait(timeout=5)
        inner = tracer.begin(name + ".inner")
        tracer.end(inner)
        tracer.end(span)

    threads = [threading.Thread(target=work, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["a.inner"].parent == by_name["a"].id
    assert by_name["b.inner"].parent == by_name["b"].id
    assert by_name["a"].parent is None and by_name["b"].parent is None


def test_instrument_wraps_and_restores_the_program():
    import repro.perf
    from repro.core import continuous

    before_epoch = continuous.ContinuousBenchmarking.run_epoch
    before_fp = repro.perf.fingerprint
    before_submit = ThreadPoolExecutor.submit
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        assert continuous.ContinuousBenchmarking.run_epoch is not before_epoch
        assert repro.perf.fingerprint is not before_fp
        assert continuous.fingerprint is repro.perf.fingerprint
        repro.perf.fingerprint({"x": 1})
        assert [s.name for s in tracer.spans] == ["perf.fingerprint"]
    finally:
        undo()
    assert continuous.ContinuousBenchmarking.run_epoch is before_epoch
    assert repro.perf.fingerprint is before_fp
    assert continuous.fingerprint is before_fp
    assert ThreadPoolExecutor.submit is before_submit
