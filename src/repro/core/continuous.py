"""The continuous-benchmarking loop itself.

§2: "Being able to automate the benchmarking process and store the results
of the evaluation before and after any changes to hardware, firmware,
drivers, or software will provide a deeper understanding of the impact of
these changes."

:class:`ContinuousBenchmarking` runs one (experiment, system) campaign per
*epoch* — a scheduled CI trigger in real Benchpark — against a system whose
health follows a :class:`~repro.systems.failures.FailureSchedule`, stores
every FOM in the metrics database tagged with its epoch, and scans the
accumulated history with a :class:`~repro.analysis.regression.RegressionDetector`.
Each stage of an epoch is a region of the loop's own
:class:`~repro.analysis.caliper.CaliperSession` (``epoch:setup``,
``epoch:run``, ``epoch:analyze``, ``epoch:ingest``, ``epoch:replay``,
``epoch:checkpoint``, and the engine's ``analysis:*`` regions);
``caliper.snapshot()`` reads the tree.  The regression-tracking bench
injects a DIMM degradation mid-history and shows the loop localizing it in
time.

Campaign state lives in an append-only journal, ``<workdir>/campaign.journal``,
in JSON Lines; this module is the only one that knows its format.  Line 1
is a header, ``{"version", "experiment", "system"}``, written once.  Each
completed epoch then appends one compact line, in one write::

    {"epochs_run": N,                   # epochs done after this one
     "runs": [{"benchmark", "experiment", "manifest",
               "foms": [[seq, name, value, units], ...]}, ...],
     "attempts": {experiment: info} | null,  # attempt_history[N-1]
     "cache": {"hits", "misses", "puts"},    # cumulative result-cache counters
     "key": fingerprint | null,         # set when this epoch's runs were cached
     "entries": {fingerprint: entry}}   # cache entries not yet in the journal

A run is a group of consecutive rows that share a benchmark, an experiment
and an equal manifest, so a manifest is stored once per run, not once per
FOM.  A result-cache entry is ``{"runs": runs, "epoch": K}``: the same runs
object as epoch K's line, held by reference, so an epoch cached here costs
the journal nothing beyond its ``key``.  Entries that another campaign put
into a shared store are written in full, once, in ``entries``.

Each epoch is written once, so the journal's cost per epoch does not grow
with the history.  As with a temp-file-and-rename, a killed process loses
at most the epoch it was writing, and nothing is fsynced, so power loss is
not covered.  On resume, a last line with no newline, or one that does not
parse, is a torn write: the file is truncated back to the line before it
and that epoch runs again.  A torn header means no epoch completed, and the
campaign starts fresh.  Damage anywhere else raises :class:`ValueError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.analysis.caliper import CaliperSession
from repro.analysis.engine import AnalysisEngine
from repro.analysis.regression import RegressionDetector, RegressionEvent
from repro.ci import MetricsDatabase
from repro.perf import ContentStore, fingerprint
from repro.resilience import (
    CircuitBreakerRegistry,
    FaultTolerantExecutor,
    RetryPolicy,
    TransientFaultInjector,
)
from repro.systems import SystemExecutor, get_system
from repro.systems.failures import FailureSchedule

from .driver import benchpark_setup

__all__ = ["ContinuousBenchmarking"]

#: journal format version, bumped on incompatible layout changes; version 1
#: was a whole-history checkpoint file
JOURNAL_VERSION = 2

#: the compact JSON encoding of a journal line
_COMPACT = (",", ":")

#: FOMs worth tracking per benchmark, with their direction.
TRACKED_FOMS: Dict[str, List[tuple]] = {
    "saxpy": [("bandwidth", True), ("kernel_time", False)],
    "amg2023": [("fom_solve", True), ("fom_setup", True)],
    "stream": [("triad_bw", True), ("copy_bw", True)],
    "osu-micro-benchmarks": [("total_time", False)],
    "quicksilver": [("fom_segments", True)],
}


class ContinuousBenchmarking:
    """A long-running benchmarking loop for one experiment on one system."""

    def __init__(
        self,
        experiment: str,
        system: str,
        workdir: Path | str,
        schedule: Optional[FailureSchedule] = None,
        detector: Optional[RegressionDetector] = None,
        injector: Optional[TransientFaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breakers: Optional[CircuitBreakerRegistry] = None,
        resume: bool = True,
        incremental: bool = True,
        result_cache: Optional[ContentStore] = None,
    ):
        self.experiment = experiment
        self.system_name = system
        self.base_system = get_system(system)
        self.workdir = Path(workdir)
        self.schedule = schedule or FailureSchedule()
        self.detector = detector or RegressionDetector(threshold=0.10, window=2)
        self.injector = injector
        self.retry_policy = retry_policy
        self.breakers = breakers
        if self.breakers is None and injector is not None:
            self.breakers = CircuitBreakerRegistry()
        self.db = MetricsDatabase()
        self.epochs_run = 0
        #: content-addressed reuse of prior epoch results: an epoch whose
        #: inputs (experiment, effective system state, epoch index) finger-
        #: print to a previously *clean* run replays that run's results
        #: instead of re-executing.  Pass a shared/persisted ContentStore to
        #: let a re-run campaign reuse an earlier campaign's work.
        self.incremental = incremental
        self.result_cache = (
            result_cache if result_cache is not None
            else ContentStore("epoch-results")
        )
        #: stage timings: one context tree whose size does not grow with
        #: the number of epochs
        self.caliper = CaliperSession()
        #: per-epoch resilience metadata: {epoch: {experiment: attempt info}}
        self.attempt_history: Dict[str, Dict[str, Any]] = {}
        #: result-cache keys the journal holds, and how far into the store's
        #: insertion order the journal has looked for entries to add
        self._journaled: set = set()
        self._cache_mark = 0
        #: the next journal write starts a new file with a header
        self._new_journal = True
        if resume:
            self._load_journal()
        #: incremental analysis over the accumulated history: per-series
        #: detector states read only each epoch's appends from the columnar
        #: database, so the post-epoch regression scan costs O(new) reads
        #: instead of a full history rescan.  Built after any journal
        #: replay so it wraps the restored database.
        self.analysis = AnalysisEngine(
            self.db,
            threshold=self.detector.threshold,
            window=self.detector.window,
            caliper=self.caliper,
        )

    @property
    def benchmark_name(self) -> str:
        return self.experiment.split("/")[0]

    # -- journal / resume ------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.workdir / "campaign.journal"

    def _journal_epoch(self, runs: List[Dict[str, Any]],
                       attempts: Optional[Dict[str, Any]],
                       key: Optional[str]) -> None:
        """Count the epoch as done and append its line to the journal.
        ``key`` is the fingerprint this epoch's ``runs`` were cached
        under, if they were."""
        self.epochs_run += 1
        with self.caliper.region("epoch:checkpoint"):
            store = self.result_cache
            if len(store) < self._cache_mark:  # cleared since the last look
                self._cache_mark = 0
            added = store.items(self._cache_mark)
            self._cache_mark += len(added)
            entries = {k: v for k, v in added
                       if k != key and k not in self._journaled}
            self._journaled.update(entries)
            if key is not None:
                self._journaled.add(key)
            stats = store.stats()
            text = json.dumps({
                "epochs_run": self.epochs_run,
                "runs": runs,
                "attempts": attempts or None,
                "cache": {k: stats[k] for k in ("hits", "misses", "puts")},
                "key": key,
                "entries": entries,
            }, separators=_COMPACT) + "\n"
            mode = "ab"
            if self._new_journal:
                self.workdir.mkdir(parents=True, exist_ok=True)
                header = {"version": JOURNAL_VERSION,
                          "experiment": self.experiment,
                          "system": self.system_name}
                text = json.dumps(header, separators=_COMPACT) + "\n" + text
                mode = "wb"
            with open(self.journal_path, mode) as f:
                f.write(text.encode())
            self._new_journal = False

    def _load_journal(self) -> None:
        """Replay the journal: rows, attempt history, result-cache entries
        and counters.  A torn last line is cut off, so its epoch reruns."""
        path = self.journal_path
        if not path.exists():
            legacy = self.workdir / "campaign_checkpoint.json"
            if legacy.exists():
                raise ValueError(
                    f"{legacy} is a version-1 checkpoint, which cannot be "
                    f"resumed; pass resume=False to start a new campaign"
                )
            return
        data = path.read_bytes()
        keep = data.rfind(b"\n") + 1  # a tail with no newline is torn
        lines = data[:keep].split(b"\n")[:-1]
        parsed = []
        for i, raw in enumerate(lines):
            try:
                parsed.append(json.loads(raw))
            except ValueError as e:
                if i < len(lines) - 1:
                    raise ValueError(
                        f"checkpoint journal {path} is corrupt at line "
                        f"{i + 1} ({e}); delete it (or pass resume=False) "
                        f"to restart the campaign"
                    ) from e
                keep -= len(raw) + 1  # a last line that does not parse
        if parsed:
            header = parsed[0]
            if header.get("version") != JOURNAL_VERSION:
                raise ValueError(
                    f"checkpoint journal {path} has version "
                    f"{header.get('version')}; expected {JOURNAL_VERSION}"
                )
            if (header.get("experiment") != self.experiment
                    or header.get("system") != self.system_name):
                raise ValueError(
                    f"checkpoint journal {path} is for "
                    f"{header.get('experiment')} on {header.get('system')}, "
                    f"not {self.experiment} on {self.system_name}"
                )
        if keep < len(data):
            with open(path, "r+b") as f:
                f.truncate(keep)
        if not parsed:
            return  # torn header: no epoch completed
        entries: Dict[str, Any] = {}
        counters: Dict[str, int] = {}
        for epoch, line in enumerate(parsed[1:]):
            if line["epochs_run"] != epoch + 1:
                raise ValueError(
                    f"checkpoint journal {path} is corrupt: line {epoch + 2} "
                    f"has epochs_run {line['epochs_run']}, not {epoch + 1}"
                )
            self.db.extend(_unpack_runs(line["runs"], self.system_name))
            if line["attempts"]:
                self.attempt_history[str(epoch)] = line["attempts"]
            if line["key"] is not None:
                entries[line["key"]] = {"runs": line["runs"], "epoch": epoch}
            entries.update(line["entries"])
            counters = line["cache"]
            self.epochs_run = epoch + 1
        # restore() folds the journaled counters into the store's baseline,
        # so a resumed campaign reports *cumulative* rates
        self.result_cache.restore(entries, counters)
        self._journaled = set(entries)
        self._new_journal = False

    # ------------------------------------------------------------------
    def _executor(self, system, epoch: int):
        inner = SystemExecutor(system, epoch=epoch)
        if (self.injector is None and self.retry_policy is None
                and self.breakers is None):
            return inner
        return FaultTolerantExecutor(
            inner, injector=self.injector, policy=self.retry_policy,
            breakers=self.breakers, runner_tag="continuous",
        )

    def _epoch_key(self, system, epoch: int) -> str:
        """Fingerprint of everything that determines an epoch's results:
        the experiment, the *effective* system state at this epoch (the
        failure schedule may have degraded it), and the epoch index itself
        — executors salt their measurement noise per epoch, so epoch N and
        epoch M of the same campaign legitimately differ and must never
        alias."""
        return fingerprint({
            "experiment": self.experiment,
            "system": system.to_dict(),
            "epoch": epoch,
        })

    @staticmethod
    def _epoch_is_clean(outcomes: List[Dict[str, Any]]) -> bool:
        """True when every run converged on its first attempt with no
        faults — the only results safe to serve from cache later.  A flaky
        or faulted epoch must re-execute on the next identical campaign."""
        for o in outcomes:
            if int(o.get("attempts", 1) or 1) != 1:
                return False
            if o.get("flaky"):
                return False
            if int(o.get("returncode", 0) or 0) != 0:
                return False
            if o.get("state", "completed") != "completed":
                return False
        return True

    def _replay_epoch(self, epoch: int, key: str, entry: Dict[str, Any]) -> int:
        """Serve one epoch from the result cache: identical inputs already
        produced these results, so ingest them directly — tagged with
        provenance — instead of re-running setup/run/analyze."""
        with self.caliper.region("epoch:replay"):
            tags = {
                "epoch": str(epoch),
                "attempts": "1",
                "flaky": "false",
                "cached": "true",
                "cache_provenance": (
                    f"replayed clean epoch {entry['epoch']} "
                    f"(fingerprint {key})"
                ),
            }
            start = len(self.db)
            for run in entry["runs"]:
                # a copy: the entry is shared with the epoch that made it
                manifest = {**run["manifest"], **tags}
                for _seq, name, value, units in run["foms"]:
                    self.db.record(run["benchmark"], self.system_name,
                                   run["experiment"], name, value, units,
                                   manifest)
            runs = _pack_runs(self.db.to_records(start))
        self._journal_epoch(runs, None, None)
        return len(self.db) - start

    def run_epoch(self) -> int:
        """One scheduled benchmarking run; returns FOMs recorded.

        With ``incremental=True`` (the default), the epoch's inputs are
        fingerprinted first; if an identical epoch already ran cleanly —
        e.g. this campaign was re-run with a shared or journal-restored
        ``result_cache`` — its results are replayed instead of re-executing
        the benchmarks.  Flaky or faulted epochs are never cached, so a
        replay always stands for a deterministic, converged run.
        """
        epoch = self.epochs_run
        system = self.schedule.system_at(self.base_system, epoch)
        key = self._epoch_key(system, epoch) if self.incremental else None
        entry = self.result_cache.get(key) if key is not None else None
        if entry is not None:
            return self._replay_epoch(epoch, key, entry)
        with self.caliper.region("epoch:setup"):
            session = benchpark_setup(
                self.experiment, self.system_name,
                self.workdir / f"epoch-{epoch}",
            )
            session.setup()
        with self.caliper.region("epoch:run"):
            outcomes = session.run(executor=self._executor(system, epoch))
        with self.caliper.region("epoch:analyze"):
            results = session.analyze()
        # Tag every record with its epoch for the time axis, plus the
        # attempt log so the analysis layer can tell converged samples from
        # retried (flaky) ones.
        with self.caliper.region("epoch:ingest"):
            by_name = {o.get("experiment"): o for o in outcomes}
            epoch_meta: Dict[str, Any] = {}
            for exp in results["experiments"]:
                variables = exp.setdefault("variables", {})
                variables["epoch"] = str(epoch)
                outcome = by_name.get(exp["name"], {})
                attempts = int(outcome.get("attempts", 1) or 1)
                flaky = bool(outcome.get("flaky", False))
                variables["attempts"] = str(attempts)
                variables["flaky"] = "true" if flaky else "false"
                if outcome.get("fault_kinds"):
                    variables["fault_kinds"] = ",".join(outcome["fault_kinds"])
                if attempts != 1 or flaky:
                    epoch_meta[exp["name"]] = {
                        "attempts": attempts,
                        "flaky": flaky,
                        "fault_kinds": list(outcome.get("fault_kinds", [])),
                        "total_backoff_s": float(
                            outcome.get("total_backoff_s", 0.0)
                        ),
                        "state": outcome.get("state", "completed"),
                    }
            start = len(self.db)
            count = self.db.ingest_analysis(self.system_name, results)
            runs = _pack_runs(self.db.to_records(start))
            if epoch_meta:
                self.attempt_history[str(epoch)] = epoch_meta
            if key is not None and self._epoch_is_clean(outcomes):
                self.result_cache.put(key, {"runs": runs, "epoch": epoch})
            else:
                key = None  # only clean results may be replayed later
        self._journal_epoch(runs, epoch_meta, key)
        return count

    def run(self, epochs: int) -> "ContinuousBenchmarking":
        """Run ``epochs`` *additional* epochs."""
        for _ in range(epochs):
            self.run_epoch()
        return self

    def run_until(self, total_epochs: int) -> "ContinuousBenchmarking":
        """Run until ``total_epochs`` epochs exist — the resumable entry
        point: after a kill, a fresh loop replays the journal and only
        runs the missing epochs."""
        while self.epochs_run < total_epochs:
            self.run_epoch()
        return self

    # ------------------------------------------------------------------
    def _targets(self) -> List[tuple]:
        """(benchmark, system, fom, higher_is_better) per tracked FOM."""
        return [(self.benchmark_name, self.system_name, fom_name,
                 higher_is_better)
                for fom_name, higher_is_better in TRACKED_FOMS.get(
                    self.benchmark_name, [])]

    def regressions(self) -> List[RegressionEvent]:
        """Scan the accumulated history for every tracked FOM.

        Runs through the analysis engine: each per-FOM series consumes only
        samples recorded since its last scan, so the per-epoch cost stays
        O(new) as history grows.
        """
        return self.analysis.scan(self._targets())

    def history(self, fom_name: str) -> List[tuple]:
        """(epoch, mean value) series for one FOM, retried samples included."""
        return self.db.epoch_series(self.benchmark_name, self.system_name,
                                    fom_name, exclude_flaky=False)

    def diagnose(self) -> List:
        """Name the suspected failing subsystem(s) from the cross-FOM
        regression fingerprint (§1: 'diagnosing hardware failures')."""
        targets = self._targets()
        return self.analysis.diagnose(targets, self.analysis.scan(targets))

    def report(self) -> str:
        lines = [
            f"continuous benchmarking: {self.experiment} on {self.system_name}",
            f"epochs run: {self.epochs_run}, records: {len(self.db)}",
        ]
        stats = self.result_cache.stats()
        if stats["lookups"]:
            lines.append(
                f"epoch result cache: {stats['hits']}/{stats['lookups']} "
                f"hit(s) ({stats['hit_rate']:.0%} cumulative), "
                f"{stats['entries']} cached epoch(s)"
            )
        if self.attempt_history:
            retried = sum(len(v) for v in self.attempt_history.values())
            lines.append(
                f"{retried} run(s) needed retries across epochs "
                f"{sorted(self.attempt_history)} "
                f"({self.db.flaky_count()} flaky sample(s) excluded from "
                f"regression analysis)"
            )
        targets = self._targets()
        events = self.analysis.scan(targets)
        if events:
            lines.append(f"{len(events)} regression(s) detected:")
            lines += [f"  {e}" for e in events]
            for hypothesis in self.analysis.diagnose(targets, events):
                lines.append(f"  diagnosis: {hypothesis}")
        else:
            lines.append("no regressions detected")
        return "\n".join(lines)


def _pack_runs(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Group :meth:`MetricsDatabase.to_records` rows of the campaign's
    system into runs: consecutive rows with the same benchmark, experiment
    and an equal manifest share one manifest."""
    runs: List[Dict[str, Any]] = []
    for r in rows:
        run = runs[-1] if runs else None
        if (run is None or run["benchmark"] != r["benchmark"]
                or run["experiment"] != r["experiment"]
                or run["manifest"] != r["manifest"]):
            run = {"benchmark": r["benchmark"], "experiment": r["experiment"],
                   "manifest": r["manifest"], "foms": []}
            runs.append(run)
        run["foms"].append([r["seq"], r["fom_name"], r["value"], r["units"]])
    return runs


def _unpack_runs(runs: List[Dict[str, Any]],
                 system: str) -> Iterable[Dict[str, Any]]:
    """The :meth:`MetricsDatabase.to_records` rows that :func:`_pack_runs`
    grouped."""
    for run in runs:
        for seq, name, value, units in run["foms"]:
            yield {"seq": seq, "benchmark": run["benchmark"], "system": system,
                   "experiment": run["experiment"], "fom_name": name,
                   "value": value, "units": units, "manifest": run["manifest"]}
