"""One campaign in a fresh interpreter.

    python worker.py SPEC.json RESULT.json

Started by ``run.py`` with the program's sources on ``PYTHONPATH`` and the
campaign directory as working directory.  It builds the campaign from the
generated inputs in SPEC.json, runs the timed epochs as a closed loop
(``run_epoch()`` then ``regressions()``), checks the outputs, and writes its
measurements to RESULT.json.  A fresh interpreter per campaign keeps the
process-global memos (concretization, Extra-P models) from carrying warm
state from one campaign into the next.

``mode`` in the spec is ``setup`` (stop once the campaign is ready, to
sample set-up time), ``campaign``, or ``resume`` (time resuming a finished
campaign's workdir, as a restarted process would).  With ``trace`` set,
the timed epochs run with the program's entry points wrapped in spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

from repro.analysis.regression import RegressionDetector
from repro.core.continuous import ContinuousBenchmarking
from repro.perf import ContentStore
from repro.resilience import FaultKind, RetryPolicy, TransientFaultInjector
from repro.spack import Store
from repro.spack.concretizer import concretization_memo
from repro.systems.failures import Degradation, FailureSchedule
from spans import Tracer, instrument, layer_totals

WORKDIR = Path("campaign")
COLD_WORKDIR = Path("cold")
#: a fresh interpreter resumes the finished workdir at least this many
#: times, and for at least this long: a resume takes tens of milliseconds,
#: and one that short reads the machine's speed at a single instant
RESUME_REPEATS = 7
RESUME_SECONDS = 1.5


def read_wchar() -> int:
    """Bytes this process has passed to write calls (``/proc/self/io``)."""
    for line in Path("/proc/self/io").read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def tree_bytes(root: Path, skip_epoch_dirs: bool = False) -> int:
    """Apparent size of the files under ``root``; optionally outside the
    per-epoch workspace directories ``epoch-N``."""
    total = 0
    for path in root.iterdir():
        if path.is_dir():
            if not (skip_epoch_dirs and path.name.startswith("epoch-")):
                total += tree_bytes(path)
        else:
            total += path.stat().st_size
    return total


def make_campaign(spec: Dict[str, Any], workdir: Path, result_cache=None):
    schedule = FailureSchedule([
        (epoch, Degradation(**fields)) for epoch, fields in spec["schedule"]
    ])
    injector = policy = None
    faults = spec["faults"]
    if faults:
        injector = TransientFaultInjector(
            {FaultKind(k): v for k, v in faults["rates"].items()},
            salt=faults["salt"],
        )
        policy = RetryPolicy(max_attempts=faults["max_attempts"])
    detector = spec["detector"] and RegressionDetector(**spec["detector"])
    return ContinuousBenchmarking(
        spec["experiment"], spec["system"], workdir, schedule=schedule,
        detector=detector, injector=injector, retry_policy=policy,
        result_cache=result_cache,
    )


def fom_series(campaign) -> List[tuple]:
    return [(r["manifest"].get("epoch"), r["experiment"], r["fom_name"],
             r["value"]) for r in campaign.db.to_records()]


def event_tuples(events) -> List[tuple]:
    return [(e.metric, e.epoch, e.baseline, e.observed, e.ratio)
            for e in events]


def run_accounting(campaign) -> Dict[str, Any]:
    """Runs and retries from the campaign's public state: its records and
    ``attempt_history``.  Replayed epochs executed nothing."""
    executed = set()
    replayed = set()
    commands: Dict[tuple, int] = {}
    for r in campaign.db.to_records():
        key = (str(r["manifest"].get("epoch")), r["experiment"])
        if r["manifest"].get("cached") == "true":
            replayed.add(key)
        else:
            executed.add(key)
            commands[key] = sum(
                1 for line in r["manifest"].get("command", "").splitlines()
                if line.strip() and not line.startswith("export "))
    # attempt_history lists only the runs that needed more than one attempt
    not_completed = retries = faults = 0
    backoff = 0.0
    for epoch, runs in campaign.attempt_history.items():
        for name, info in runs.items():
            executed.add((epoch, name))
            retries += int(info["attempts"]) - 1
            faults += len(info["fault_kinds"])
            backoff += float(info["total_backoff_s"])
            if info["state"] != "completed":
                not_completed += 1
    return {
        "runs": len(executed) + len(replayed),
        "executed": len(executed),
        "not_completed": not_completed,
        "completed": len(executed) - not_completed,
        "attempts": len(executed) + retries,
        "retries": retries,
        "faults": faults,
        "backoff_s": backoff,
        "kernels": sum(commands.values()),
    }


def fom_ok(value: Any) -> bool:
    """A numeric FOM, or a string that parses as a number (``float``
    accepts ``"nan"``), must be finite and positive; any other string is a
    success message and must not be empty."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return bool(value.strip())
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def check(checks: List[list], name: str, ok: bool, detail: str = "") -> None:
    checks.append([name, bool(ok), detail])


def output_checks(spec, campaign, events, checks: List[list]) -> None:
    epochs = spec["epochs"]
    records = campaign.db.to_records()
    check(checks, "epochs_run", campaign.epochs_run == epochs,
          f"{campaign.epochs_run} of {epochs}")
    bad = [r["value"] for r in records if not fom_ok(r["value"])]
    check(checks, "foms_finite_positive", not bad,
          f"{len(bad)} bad values {bad[:3]}")
    if spec["foms_per_epoch"] is not None:
        want = spec["foms_per_epoch"] * epochs
        check(checks, "records", len(records) == want,
              f"{len(records)} records, want {want}")
    if not spec["faults"]:
        check(checks, "all_runs_completed", not campaign.attempt_history,
              f"{len(campaign.attempt_history)} epoch(s) with retries")
    else:
        onset = spec["schedule"][0][0]
        early = [e for e in events if e.epoch < onset]
        # a shared machine can really lose a third of its memory bandwidth
        # for a while; an event before the onset is correct when the
        # stored series shows that drop
        unexplained = [e for e in early if not event_in_data(
            e, records, spec["detector"])]
        check(checks, "events_before_onset_match_data", not unexplained,
              f"{len(early)} before the onset, unexplained: "
              + "; ".join(str(e) for e in unexplained))
        hits = [e for e in events if e.metric.endswith("/triad_bw")
                and onset <= e.epoch <= onset + 3]
        check(checks, "onset_detected",
              any(0.4 <= e.ratio <= 0.6 for e in hits),
              f"onset {onset}, triad_bw events there: "
              + "; ".join(str(e) for e in hits))


def event_in_data(event, records, detector) -> bool:
    """Recompute an event from the stored records, as the detector defines
    it: the mean of the per-epoch means before the event's epoch, against
    the mean over the ``window`` epochs from it, retried samples left out."""
    fom = event.metric.rsplit("/", 1)[1]
    by_epoch: Dict[float, List[float]] = {}
    for r in records:
        m = r["manifest"]
        if (r["fom_name"] != fom or m.get("flaky") == "true"
                or int(m.get("attempts", "1")) > 1):
            continue
        by_epoch.setdefault(float(m["epoch"]), []).append(float(r["value"]))
    epochs = sorted(by_epoch)
    if event.epoch not in by_epoch:
        return False
    i = epochs.index(event.epoch)
    means = [statistics.fmean(by_epoch[e]) for e in epochs]
    window = means[i:i + detector["window"]]
    if i == 0 or len(window) < detector["window"]:
        return False
    baseline = statistics.fmean(means[:i])
    observed = statistics.fmean(window)
    return (math.isclose(baseline, event.baseline, rel_tol=1e-9)
            and math.isclose(observed, event.observed, rel_tol=1e-9)
            and observed / baseline < 1 - detector["threshold"])


def resume_main(spec: Dict[str, Any], result_path: str) -> int:
    """The crash-recovery path: a new process resumes the finished workdir,
    repeatedly so that one run gives a steadier median."""
    out: Dict[str, Any] = {"resume_s": []}
    start = time.perf_counter()
    while (len(out["resume_s"]) < RESUME_REPEATS
           or time.perf_counter() - start < RESUME_SECONDS):
        resumed = None  # resume into a heap without the last copy
        t0 = time.perf_counter()
        resumed = make_campaign(spec, WORKDIR, result_cache=ContentStore("r"))
        out["resume_s"].append(time.perf_counter() - t0)
    out["records_digest"] = records_digest(resumed)
    out["epochs_run"] = resumed.epochs_run
    Path(result_path).write_text(json.dumps(out))
    return 0


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    if spec["mode"] == "resume":
        return resume_main(spec, result_path)
    checks: List[list] = []
    out: Dict[str, Any] = {"checks": checks}
    store = ContentStore("epoch-results")
    if spec["warm"]:
        cold = make_campaign(spec, COLD_WORKDIR, result_cache=store)
        for _ in range(spec["epochs"]):
            cold.run_epoch()
            cold_events = cold.regressions()
        cold_series = fom_series(cold)
        cold_events = event_tuples(cold_events)
    campaign = make_campaign(spec, WORKDIR, result_cache=store)
    out["setup_s"] = time.monotonic() - spec["spawn_monotonic"]
    if spec["mode"] == "setup":
        Path(result_path).write_text(json.dumps(out))
        return 0

    tracer = uninstrument = None
    if spec["trace"]:
        tracer = Tracer()
        uninstrument = instrument(tracer)
    cache0 = store.stats()
    memo0 = concretization_memo().stats()
    records0 = len(campaign.db)
    wchar0 = read_wchar()
    times: List[float] = []
    failed_epochs = 0
    events: list = []
    loop_start = time.perf_counter()
    for _ in range(spec["epochs"]):
        t0 = time.perf_counter()
        try:
            campaign.run_epoch()
            events = campaign.regressions()
        except Exception:
            traceback.print_exc()
            failed_epochs += 1
            break
        times.append(time.perf_counter() - t0)
    out["wall_s"] = time.perf_counter() - loop_start
    out["write_bytes"] = read_wchar() - wchar0
    if uninstrument is not None:
        uninstrument()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["epoch_s"] = times
    out["failed_epochs"] = failed_epochs
    cache1 = store.stats()
    memo1 = concretization_memo().stats()

    output_checks(spec, campaign, events, checks)
    if spec["warm"]:
        check(checks, "replay_series_identical",
              fom_series(campaign) == cold_series)
        check(checks, "replay_events_identical",
              event_tuples(events) == cold_events)
        hits = cache1["hits"] - cache0["hits"]
        lookups = cache1["lookups"] - cache0["lookups"]
        check(checks, "replay_hit_rate", lookups > 0 and hits == lookups,
              f"{hits}/{lookups} hits")

    resume = resume_probe(spec)
    resume_s = resume["resume_s"]
    check(checks, "resume_identical",
          resume["records_digest"] == records_digest(campaign)
          and resume["epochs_run"] == campaign.epochs_run)
    out["resume_s"] = resume_s
    out["disk_bytes"] = tree_bytes(WORKDIR)
    out["checkpoint_bytes"] = tree_bytes(WORKDIR, skip_epoch_dirs=True)
    out["runs"] = run_accounting(campaign)
    out["attempt_history"] = campaign.attempt_history
    out["records_added"] = len(campaign.db) - records0
    out["events"] = len(events)
    out["cache"] = {k: cache1[k] - cache0[k] for k in ("hits", "lookups")}
    out["memo"] = {k: memo1[k] - memo0[k] for k in ("hits", "lookups")}
    if tracer is not None:
        out["layers"] = layer_report(tracer)
        # a fixed amount of work: the first resumes, not the time budget
        out["layers"]["resume_s"] = sum(resume_s[:RESUME_REPEATS])
        out["install_count"] = count_installed(campaign)
    Path(result_path).write_text(json.dumps(out))
    return 0


def records_digest(campaign) -> str:
    return hashlib.sha256(json.dumps(campaign.db.to_records(),
                                     sort_keys=True).encode()).hexdigest()


def resume_probe(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Time resuming the finished workdir in a fresh interpreter."""
    spec_path = Path("resume.spec.json")
    result_path = Path("resume.json")
    spec_path.write_text(json.dumps(dict(spec, mode="resume")))
    subprocess.run([sys.executable, __file__, str(spec_path),
                    str(result_path)], check=True, timeout=60)
    result = json.loads(result_path.read_text())
    spec_path.unlink()
    result_path.unlink()
    return result


def count_installed(campaign) -> int:
    """Packages in the per-epoch Spack stores the campaign left behind."""
    return sum(len(Store(d / "software" / "store"))
               for d in campaign.workdir.glob("epoch-*")
               if (d / "software" / "store").is_dir())


def layer_report(tracer) -> Dict[str, Any]:
    roots = [s for s in tracer.spans
             if s.parent is None and s.name in ("core.epoch", "core.regressions")]
    return {
        "totals": layer_totals(tracer.spans),
        "root_wall_s": sum(s.duration for s in roots),
        "spans": len(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
