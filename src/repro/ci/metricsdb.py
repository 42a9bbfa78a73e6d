"""Metrics database (Figure 6): where continuous-benchmarking results land.

§5: "Storing the Benchpark manifest with the performance results will enable
introspection into benchmark performance across systems and time."  Records
therefore carry the full experiment manifest (application/system/experiment
variables) alongside each FOM, a monotonically increasing sequence number
standing in for time, and query/aggregation APIs the dashboard and Thicket
consume.

Storage is columnar (exaCB's argument: incremental analysis needs one
incremental store).  String dimensions are interned to ``int32`` codes,
values become a ``float64`` column with a validity mask, and rows are
partitioned by ``(system, benchmark)`` in insertion order, so queries are
vectorized passes over column views.  Sequence numbers, raw values, units
and manifests stay as per-row lists; numeric manifest keys (epoch, nprocs,
...) become columns the first time a query asks for them.  :class:`MetricRecord` objects are
built only when :meth:`MetricsDatabase.query` returns them.

A value or manifest entry is *usable* when it parses as a float and is
finite: one NaN sample (``float("nan")`` accepts the string ``"nan"``) would
otherwise poison every later baseline mean and blind the regression
detector.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["MetricRecord", "MetricsDatabase"]

#: attribute dimensions interned to integer codes
_DIMENSIONS = ("benchmark", "system", "experiment", "fom_name")


@dataclass(frozen=True)
class MetricRecord:
    seq: int
    benchmark: str
    system: str
    experiment: str
    fom_name: str
    value: Any
    units: str = ""
    manifest: Dict[str, Any] = field(default_factory=dict, hash=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "benchmark": self.benchmark,
            "system": self.system,
            "experiment": self.experiment,
            "fom_name": self.fom_name,
            "value": self.value,
            "units": self.units,
            "manifest": dict(self.manifest),
        }


class _Column:
    """A growable numpy column.  Appends go to a python list and reach the
    array in one batch at the next read, so a record costs no numpy calls;
    capacity doubles, so the total copy cost stays O(rows)."""

    __slots__ = ("_buf", "_n", "_pending")

    def __init__(self, dtype):
        self._buf = np.empty(64, dtype=dtype)
        self._n = 0
        self._pending: List[Any] = []

    def append(self, value) -> None:
        self._pending.append(value)

    @property
    def view(self) -> np.ndarray:
        """Zero-copy view of every appended value."""
        if self._pending:
            need = self._n + len(self._pending)
            if need > self._buf.size:
                grown = np.empty(max(need, 2 * self._buf.size),
                                 dtype=self._buf.dtype)
                grown[: self._n] = self._buf[: self._n]
                self._buf = grown
            self._buf[self._n:need] = self._pending
            self._n = need
            self._pending.clear()
        return self._buf[: self._n]


def _to_float(value: Any) -> Tuple[float, bool]:
    """(float(value), usable): usable means it parses and is finite."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        return 0.0, False
    return (x, True) if math.isfinite(x) else (0.0, False)


def _flaky(manifest: Dict[str, Any]) -> bool:
    flag = manifest.get("flaky")
    if isinstance(flag, str):
        if flag.lower() in ("true", "1", "yes"):
            return True
    elif flag:
        return True
    try:
        return int(float(manifest.get("attempts", 1))) > 1
    except (TypeError, ValueError, OverflowError):
        return False


_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


class MetricsDatabase:
    """Append-only, columnar store of benchmark results."""

    def __init__(self):
        self._seq = itertools.count(1)
        #: per dimension, label -> int code (insertion order = code order)
        self._codes: Dict[str, Dict[str, int]] = {d: {} for d in _DIMENSIONS}
        #: :meth:`_append` fills the columns in this order
        self._cols: Dict[str, _Column] = {
            "benchmark": _Column(np.int32),
            "system": _Column(np.int32),
            "experiment": _Column(np.int32),
            "fom_name": _Column(np.int32),
            "value": _Column(np.float64),
            "value_ok": _Column(np.bool_),
            "flaky": _Column(np.bool_),
        }
        self._seqs: List[int] = []
        self._values: List[Any] = []
        self._units: List[str] = []
        self._manifests: List[Dict[str, Any]] = []
        #: manifest key -> (float64 values, usable mask), built on first use
        self._manifest_cols: Dict[str, Tuple[_Column, _Column]] = {}
        #: (system code, benchmark code) -> row ids in insertion order
        self._partitions: Dict[Tuple[int, int], _Column] = {}

    # -- ingestion -------------------------------------------------------
    def _append(self, seq: int, benchmark: str, system: str, experiment: str,
                fom_name: str, value: Any, units: str,
                manifest: Dict[str, Any]) -> None:
        row = len(self._values)
        b, s, e, f = [codes.setdefault(name, len(codes)) for codes, name in zip(
            self._codes.values(), (benchmark, system, experiment, fom_name))]
        number, ok = _to_float(value)
        for column, item in zip(self._cols.values(),
                                (b, s, e, f, number, ok, _flaky(manifest))):
            column.append(item)
        self._seqs.append(seq)
        self._values.append(value)
        self._units.append(units)
        self._manifests.append(manifest)
        for key, (xs, oks) in self._manifest_cols.items():
            x, x_ok = _to_float(manifest.get(key))
            xs.append(x)
            oks.append(x_ok)
        part = self._partitions.get((s, b))
        if part is None:
            part = self._partitions[(s, b)] = _Column(np.int64)
        part.append(row)

    def _labels_of(self, dimension: str, codes: np.ndarray) -> List[str]:
        """Decode a dimension's codes to labels in one vectorized gather."""
        return np.array(self.labels(dimension), dtype=object)[codes].tolist()

    def _records_at(self, rows: np.ndarray) -> List[MetricRecord]:
        dims = [self._labels_of(d, self.column(d)[rows]) for d in _DIMENSIONS]
        return [
            MetricRecord(self._seqs[row], b, s, e, f, self._values[row],
                         self._units[row], self._manifests[row])
            for row, b, s, e, f in zip(rows.tolist(), *dims)
        ]

    def record(self, benchmark: str, system: str, experiment: str,
               fom_name: str, value: Any, units: str = "",
               manifest: Optional[Dict[str, Any]] = None) -> MetricRecord:
        rec = MetricRecord(next(self._seq), benchmark, system, experiment,
                           fom_name, value, units, dict(manifest or {}))
        self._append(rec.seq, benchmark, system, experiment, fom_name, value,
                     units, rec.manifest)
        return rec

    def ingest_analysis(self, system: str, analysis: Dict[str, Any]) -> int:
        """Load a Ramble ``results.latest.json`` payload; returns the number
        of FOM records stored."""
        count = 0
        for exp in analysis.get("experiments", []):
            for fom in exp.get("figures_of_merit", []):
                self._append(
                    next(self._seq), exp["application"], system, exp["name"],
                    fom["name"], fom["value"], fom.get("units", ""),
                    dict(exp.get("variables", {})),
                )
                count += 1
        return count

    # -- column access -----------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Zero-copy view of one stored column (a dimension's codes,
        ``value``, ``value_ok`` or ``flaky``)."""
        return self._cols[name].view

    def labels(self, dimension: str) -> List[str]:
        """Every distinct label of one dimension, in first-seen order."""
        return list(self._codes[dimension])

    def units(self, row: int) -> str:
        return self._units[row]

    def manifest_column(self, key: str) -> Tuple[np.ndarray, np.ndarray]:
        """(values, usable) columns for one manifest key, built on first
        use and extended on every append."""
        pair = self._manifest_cols.get(key)
        if pair is None:
            pair = (_Column(np.float64), _Column(np.bool_))
            for manifest in self._manifests:
                x, ok = _to_float(manifest.get(key))
                pair[0].append(x)
                pair[1].append(ok)
            self._manifest_cols[key] = pair
        return pair[0].view, pair[1].view

    def partition_rows(self, system: str, benchmark: str) -> np.ndarray:
        """Row ids of one (system, benchmark) partition, insertion order."""
        s = self._codes["system"].get(system)
        b = self._codes["benchmark"].get(benchmark)
        part = self._partitions.get((s, b))
        return _EMPTY if part is None else part.view

    def series_rows(self, benchmark: str, system: str, fom_name: str,
                    x_key: str, exclude_flaky: bool = False,
                    start: int = 0) -> np.ndarray:
        """Row ids (insertion order) of one series' usable samples, skipping
        the partition's first ``start`` rows — a consumer that remembers
        how many partition rows it has seen gets exactly the new samples."""
        rows = self.partition_rows(system, benchmark)[start:]
        f = self._codes["fom_name"].get(fom_name)
        if rows.size == 0 or f is None:
            return _EMPTY
        _, x_ok = self.manifest_column(x_key)
        mask = self.column("fom_name")[rows] == f
        mask &= self.column("value_ok")[rows]
        mask &= x_ok[rows]
        if exclude_flaky:
            mask &= ~self.column("flaky")[rows]
        return rows[mask]

    # -- queries -----------------------------------------------------------
    @staticmethod
    def is_flaky(rec: MetricRecord) -> bool:
        """True when the record came from a retried (non-converged) run —
        the resilience layer tags those with ``flaky``/``attempts`` in the
        manifest."""
        return _flaky(rec.manifest)

    def query(self, benchmark: Optional[str] = None, system: Optional[str] = None,
              fom_name: Optional[str] = None,
              experiment: Optional[str] = None,
              predicate: Optional[Callable[[MetricRecord], bool]] = None,
              exclude_flaky: bool = False) -> List[MetricRecord]:
        """Matching records in insertion order."""
        if system is not None and benchmark is not None:
            rows = self.partition_rows(system, benchmark)
        else:
            rows = np.arange(len(self), dtype=np.int64)
        mask = np.ones(rows.size, dtype=bool)
        for dim, wanted in (("benchmark", benchmark), ("system", system),
                            ("experiment", experiment),
                            ("fom_name", fom_name)):
            if wanted is None:
                continue
            code = self._codes[dim].get(wanted)
            if code is None:
                return []
            mask &= self.column(dim)[rows] == code
        if exclude_flaky:
            mask &= ~self.column("flaky")[rows]
        records = self._records_at(rows[mask])
        if predicate is not None:
            records = [rec for rec in records if predicate(rec)]
        return records

    def flaky_count(self) -> int:
        return int(np.count_nonzero(self.column("flaky")))

    def series(self, benchmark: str, system: str, fom_name: str,
               x_key: str, exclude_flaky: bool = False) -> List[tuple]:
        """(manifest[x_key], value) pairs — e.g. nprocs vs total_time for
        the Figure 14 fit — sorted by x (then value)."""
        x, y = self._series_arrays(benchmark, system, fom_name, x_key,
                                   exclude_flaky)
        return list(zip(x.tolist(), y.tolist()))

    def _series_arrays(self, benchmark, system, fom_name, x_key,
                       exclude_flaky) -> Tuple[np.ndarray, np.ndarray]:
        rows = self.series_rows(benchmark, system, fom_name, x_key,
                                exclude_flaky=exclude_flaky)
        x = self.manifest_column(x_key)[0][rows]
        y = self.column("value")[rows]
        order = np.lexsort((y, x))
        return x[order], y[order]

    def epoch_series(self, benchmark: str, system: str, fom_name: str,
                     epoch_key: str = "epoch",
                     exclude_flaky: bool = True) -> List[Tuple[float, float]]:
        """(epoch, mean value) per epoch — several experiments in one epoch
        are averaged, in (epoch, value)-sorted order.  This is the series
        the regression detectors score.

        Samples from retried (flaky) runs are excluded by default.
        """
        x, y = self._series_arrays(benchmark, system, fom_name, epoch_key,
                                   exclude_flaky)
        bounds = (np.flatnonzero(np.diff(x)) + 1).tolist()
        return [(float(x[a]), float(np.mean(y[a:b])))
                for a, b in zip([0] + bounds, bounds + [x.size]) if a < b]

    def aggregate(self, fom_name: str, group_by: str = "system",
                  exclude_flaky: bool = True) -> Dict[str, Dict[str, float]]:
        """Per-group summary statistics of one FOM.

        ``group_by`` names a record dimension or a manifest key.  Flaky
        (retried) samples are excluded by default, matching :meth:`series`
        consumers and the regression detector — aggregate statistics must
        not mix converged samples with ones measured while the system was
        flapping.
        """
        f = self._codes["fom_name"].get(fom_name)
        if f is None:
            return {}
        mask = (self.column("fom_name") == f) & self.column("value_ok")
        if exclude_flaky:
            mask &= ~self.column("flaky")
        rows = np.flatnonzero(mask)
        values = self.column("value")[rows]
        if group_by in _DIMENSIONS:
            codes = self.column(group_by)[rows]
            names = self.labels(group_by)
        else:
            found: Dict[str, int] = {}
            codes = np.array([
                found.setdefault(str(self._manifests[r].get(group_by)),
                                 len(found))
                for r in rows.tolist()], dtype=np.int64)
            names = list(found)
        out = {}
        for code in np.unique(codes).tolist():
            group = values[codes == code]
            out[names[code]] = {
                "mean": float(np.mean(group)),
                "min": float(np.min(group)),
                "max": float(np.max(group)),
                "count": int(group.size),
            }
        return dict(sorted(out.items()))

    # -- usage metrics (§5: "which codes are accessed most heavily") --------
    def benchmark_usage(self) -> Dict[str, int]:
        names = self.labels("benchmark")
        counts = np.bincount(self.column("benchmark"), minlength=len(names))
        order = np.argsort(-counts, kind="stable").tolist()
        return {names[c]: int(counts[c]) for c in order}

    # -- persistence -----------------------------------------------------------
    def to_records(self, start: int = 0) -> List[Dict[str, Any]]:
        """JSON-serializable record list of the rows from ``start`` on —
        a caller that remembers ``len(db)`` gets exactly the rows appended
        since, at a cost that does not grow with the history."""
        dims = [self._labels_of(d, self.column(d)[start:]) for d in _DIMENSIONS]
        return [
            {"seq": seq, "benchmark": b, "system": s, "experiment": e,
             "fom_name": f, "value": v, "units": u, "manifest": dict(m)}
            for seq, b, s, e, f, v, u, m in zip(
                self._seqs[start:], *dims, self._values[start:],
                self._units[start:], self._manifests[start:])
        ]

    def extend(self, records: Iterable[Dict[str, Any]]) -> None:
        """Append stored rows in :meth:`to_records` form.

        Each row keeps its ``seq`` (a row without one gets the next
        number), and later records continue after the largest, so a
        dump/load round trip is the identity, not a re-numbering.
        """
        max_seq = 0
        for d in records:
            seq = int(d["seq"]) if d.get("seq") is not None else next(self._seq)
            max_seq = max(max_seq, seq)
            self._append(seq, d["benchmark"], d["system"], d["experiment"],
                         d["fom_name"], d["value"], d.get("units", ""),
                         dict(d.get("manifest") or {}))
        self._seq = itertools.count(max(max_seq + 1, next(self._seq)))

    @classmethod
    def from_records(cls, records: Iterable[Dict[str, Any]]) -> "MetricsDatabase":
        """Rebuild a database from :meth:`to_records` output."""
        db = cls()
        db.extend(records)
        return db

    def dump(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.to_records(), indent=2))

    @classmethod
    def load(cls, path: Path | str) -> "MetricsDatabase":
        return cls.from_records(json.loads(Path(path).read_text()))

    def __len__(self):
        return len(self._values)
