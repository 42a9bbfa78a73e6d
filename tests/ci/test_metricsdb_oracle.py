"""Differential test: every MetricsDatabase query against its plain-Python
definition over ``to_records()``, on random record streams with flaky tags,
non-numeric and non-finite values, epochs arriving out of order, appends
after the columns were first read, and a dump/load round trip."""

import json

from hypothesis import given, settings, strategies as st

from repro.ci import MetricsDatabase

from tests.ci import metrics_oracle as oracle

BENCHMARKS = ("stream", "saxpy")
SYSTEMS = ("cts1", "tioga", "sierra")
FOMS = ("triad_bw", "walltime")

values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.integers(min_value=-1000, max_value=1000),
    st.sampled_from(["12.5", " 7 ", "nan", "inf", "-inf", "1e999", "n/a",
                     "Kernel done", "", float("nan"), float("inf"), None,
                     True]),
)
manifests = st.fixed_dictionaries({}, optional={
    # late epochs: records land in random epoch order
    "epoch": st.one_of(st.integers(min_value=0, max_value=6).map(str),
                       st.integers(min_value=0, max_value=6),
                       st.sampled_from(["nan", "soon"])),
    "nprocs": st.sampled_from(["2", "4", 8, None]),
    "flaky": st.sampled_from(["true", "false", "1", "yes", True, False]),
    "attempts": st.sampled_from(["1", "2", 3, "x"]),
})
records = st.lists(st.tuples(
    st.sampled_from(BENCHMARKS), st.sampled_from(SYSTEMS),
    st.sampled_from(("a", "b")), st.sampled_from(FOMS), values,
    st.sampled_from(("GB/s", "s", "")), manifests,
), max_size=40)


def check_against_oracle(db):
    recs = db.to_records()
    assert [r.to_dict() for r in db.query()] == recs
    for exclude in (False, True):
        assert ([r.to_dict() for r in db.query(exclude_flaky=exclude)]
                == oracle.query(recs, exclude))
        for fom in FOMS + ("ghost",):
            assert ([r.to_dict() for r in db.query(
                        system="cts1", experiment="a", fom_name=fom,
                        exclude_flaky=exclude)]
                    == oracle.query(recs, exclude, system="cts1",
                                    experiment="a", fom_name=fom))
            for group_by in ("system", "benchmark", "nprocs"):
                assert (db.aggregate(fom, group_by, exclude_flaky=exclude)
                        == oracle.aggregate(recs, fom, group_by, exclude))
        for b in BENCHMARKS:
            for s in SYSTEMS:
                assert ([r.to_dict() for r in db.query(
                            benchmark=b, system=s, exclude_flaky=exclude)]
                        == oracle.query(recs, exclude, benchmark=b, system=s))
                for fom in FOMS:
                    for x_key in ("epoch", "nprocs"):
                        assert (db.series(b, s, fom, x_key, exclude)
                                == oracle.series(recs, b, s, fom, x_key,
                                                 exclude))
                    assert (db.epoch_series(b, s, fom, exclude_flaky=exclude)
                            == oracle.epoch_series(recs, b, s, fom,
                                                   exclude_flaky=exclude))
    assert db.benchmark_usage() == oracle.benchmark_usage(recs)
    assert db.flaky_count() == sum(oracle.flaky(r) for r in recs)
    assert len(db) == len(recs)


@given(records, st.integers(min_value=0, max_value=40))
@settings(max_examples=80, deadline=None)
def test_queries_match_plain_python_definitions(rows, split):
    db = MetricsDatabase()
    for row in rows[:split]:
        db.record(*row)
    check_against_oracle(db)  # builds the manifest columns ...
    for row in rows[split:]:
        db.record(*row)
    check_against_oracle(db)  # ... which the later appends must extend

    loaded = MetricsDatabase.from_records(
        json.loads(json.dumps(db.to_records())))
    assert json.dumps(loaded.to_records()) == json.dumps(db.to_records())
    check_against_oracle(loaded)
