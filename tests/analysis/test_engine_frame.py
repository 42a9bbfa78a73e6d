"""The column storage behind MetricsDatabase: fixed-example checks against
plain-Python definitions, filtered queries, appends seen through the
partitions and manifest columns the analysis engine reads, and the
dashboard's golden text."""

from repro.analysis import render_report
from repro.ci import MetricsDatabase
from tests.ci import metrics_oracle as oracle


def _populated():
    db = MetricsDatabase()
    for epoch in range(6):
        for system in ("cts1", "tioga"):
            for benchmark, fom in (("stream", "triad_bw"), ("saxpy", "bandwidth")):
                for exp in ("a", "b"):
                    value = 100.0 + epoch + (7.0 if system == "tioga" else 0.0)
                    manifest = {"epoch": str(epoch), "nprocs": str(2 ** epoch)}
                    if epoch == 2 and exp == "b":
                        manifest["flaky"] = "true"
                    db.record(benchmark, system, exp, fom, value, "GB/s",
                              manifest)
    # a non-numeric value, a NaN and a record missing the epoch key: every
    # query must skip them where the definitions do
    db.record("stream", "cts1", "a", "triad_bw", "n/a", "", {"epoch": "1"})
    db.record("stream", "cts1", "b", "triad_bw", "nan", "", {"epoch": "3"})
    db.record("stream", "cts1", "a", "triad_bw", 55.0, "GB/s", {})
    return db


class TestFrameParity:
    def test_series_matches_database(self):
        db = _populated()
        for exclude in (False, True):
            assert (db.series("stream", "cts1", "triad_bw", "epoch",
                              exclude_flaky=exclude)
                    == oracle.series(db.to_records(), "stream", "cts1",
                                     "triad_bw", "epoch", exclude))

    def test_aggregate_matches_database(self):
        db = _populated()
        recs = db.to_records()
        for exclude in (False, True):
            assert (db.aggregate("triad_bw", exclude_flaky=exclude)
                    == oracle.aggregate(recs, "triad_bw",
                                        exclude_flaky=exclude))
        assert (db.aggregate("bandwidth", group_by="benchmark")
                == oracle.aggregate(recs, "bandwidth", group_by="benchmark"))

    def test_aggregate_by_manifest_key(self):
        db = _populated()
        agg = db.aggregate("triad_bw", group_by="nprocs")
        assert agg == oracle.aggregate(db.to_records(), "triad_bw",
                                       group_by="nprocs")
        assert agg["None"]["count"] == 1  # the record without the key

    def test_benchmark_usage_matches(self):
        db = _populated()
        assert db.benchmark_usage() == oracle.benchmark_usage(db.to_records())

    def test_unknown_labels_are_empty_not_errors(self):
        db = _populated()
        assert db.series("ghost", "cts1", "triad_bw", "epoch") == []
        assert db.epoch_series("stream", "cts1", "ghost_fom") == []
        assert db.aggregate("ghost_fom") == {}
        assert db.partition_rows("ghost", "stream").size == 0

    def test_epoch_series_matches_detector_grouping(self):
        db = _populated()
        for exclude in (False, True):
            assert (db.epoch_series("stream", "cts1", "triad_bw",
                                    exclude_flaky=exclude)
                    == oracle.epoch_series(db.to_records(), "stream", "cts1",
                                           "triad_bw", exclude_flaky=exclude))


class TestRefresh:
    """Appends reach the partitions and manifest columns the analysis
    engine reads incrementally."""

    def test_appends_absorbed_incrementally(self):
        db = _populated()
        seen = db.partition_rows("cts1", "stream").size
        db.record("stream", "cts1", "a", "triad_bw", 99.0, "GB/s",
                  {"epoch": "9"})
        new = db.series_rows("stream", "cts1", "triad_bw", "epoch",
                             start=seen)
        assert new.tolist() == [len(db) - 1]
        assert db.column("value")[new].tolist() == [99.0]

    def test_untouched_partitions_keep_their_generation(self):
        db = _populated()
        before = db.partition_rows("tioga", "saxpy").tolist()
        db.record("stream", "cts1", "a", "triad_bw", 1.0, "", {"epoch": "9"})
        assert db.partition_rows("tioga", "saxpy").tolist() == before

    def test_manifest_columns_extended_on_refresh(self):
        db = _populated()
        db.manifest_column("epoch")  # build the column before the append
        db.record("stream", "cts1", "a", "triad_bw", 42.0, "GB/s",
                  {"epoch": "41"})
        vals, ok = db.manifest_column("epoch")
        assert vals.size == len(db)
        assert vals[-1] == 41.0 and bool(ok[-1])


class TestQueryFilters:
    """Filtered selections through ``query``."""

    def test_filters_compose(self):
        db = _populated()
        recs = db.query(system="cts1", benchmark="stream", exclude_flaky=True)
        assert recs
        assert all(r.system == "cts1" and r.benchmark == "stream"
                   and not db.is_flaky(r) for r in recs)

    def test_unknown_label_gives_empty_view(self):
        db = _populated()
        assert db.query(system="ghost") == []
        assert db.query(system="cts1", benchmark="ghost") == []

    def test_predicate_filter(self):
        db = _populated()
        recs = db.query(fom_name="triad_bw", predicate=lambda r: isinstance(
            r.value, float) and r.value > 104.0)
        assert recs and all(r.value > 104.0 for r in recs)


def golden_db():
    """Mixed units, string FOMs (numeric and not), three systems, a flaky
    record and a FOM with no numeric value at all."""
    db = MetricsDatabase()
    for epoch in range(3):
        for system in ("cts1", "tioga", "sierra"):
            db.record("stream", system, "stream_omp", "triad_bw",
                      120.0 + 10 * epoch + len(system), "GB/s",
                      {"epoch": str(epoch)})
            db.record("stream", system, "stream_omp", "copy_bw",
                      str(90.5 + epoch), "GB/s", {"epoch": str(epoch)})
        db.record("saxpy", "cts1", "saxpy_512", "kernel_time",
                  0.25 * (epoch + 1), "s", {"epoch": str(epoch), "n": "512"})
        db.record("saxpy", "tioga", "saxpy_512", "kernel_time",
                  "0.125", "ms", {"epoch": str(epoch)})
    db.record("saxpy", "sierra", "saxpy_512", "kernel_time", "Kernel done",
              "", {"epoch": "0"})
    db.record("amg2023", "tioga", "amg_p8", "status", "converged", "")
    db.record("amg2023", "cts1", "amg_p8", "fom_solve", 3.5e7, "",
              {"nprocs": "8", "flaky": "true", "attempts": "2"})
    return db


GRID_SECTIONS = """\
## copy_bw [GB/s] (mean)

                    cts1      sierra       tioga
------------------------------------------------
stream              91.5        91.5        91.5

{extra}## fom_solve (mean)

                    cts1      sierra       tioga
------------------------------------------------
amg2023          3.5e+07           —           —

## kernel_time [ms] (mean)

                    cts1      sierra       tioga
------------------------------------------------
saxpy                0.5           —       0.125

## triad_bw [GB/s] (mean)

                    cts1      sierra       tioga
------------------------------------------------
stream               134         136         135

## benchmark usage (records per benchmark)

- stream: 18
- saxpy: 7
- amg2023: 2"""


class TestEngineDashboard:
    """``render_report`` text, pinned to what the row-by-row renderer
    printed for the same databases."""

    def test_identical_to_row_oriented_report(self):
        assert render_report(golden_db()) == (
            "# Benchpark results dashboard\n\n"
            "27 records | benchmarks: amg2023, saxpy, stream | "
            "systems: cts1, sierra, tioga\n\n"
            + GRID_SECTIONS.format(extra=""))

    def test_stays_identical_after_appends(self):
        db = golden_db()
        render_report(db)
        db.record("quicksilver", "sierra", "q0", "fom_segments", 7.5,
                  "seg/s", {"epoch": "0"})
        db.record("quicksilver", "sierra", "q0", "fom_segments", "8.5",
                  "seg/s", {"epoch": "1"})
        quicksilver = (
            "## fom_segments [seg/s] (mean)\n\n"
            "                     cts1      sierra       tioga\n"
            "-------------------------------------------------\n"
            "quicksilver             —           8           —\n\n")
        assert render_report(db, title="After appends") == (
            "# After appends\n\n"
            "29 records | benchmarks: amg2023, quicksilver, saxpy, stream | "
            "systems: cts1, sierra, tioga\n\n"
            + GRID_SECTIONS.format(extra=quicksilver)
            + "\n- quicksilver: 2")

    def test_empty_database(self):
        assert render_report(MetricsDatabase()) == (
            "# Benchpark results dashboard\n\n"
            "0 records | benchmarks:  | systems: \n\n"
            "## benchmark usage (records per benchmark)\n")
