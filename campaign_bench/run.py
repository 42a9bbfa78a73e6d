"""Whole-campaign benchmark of the continuous-benchmarking loop.

    python3 campaign_bench/run.py --workload cold-history --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  Each campaign runs in a fresh interpreter
(``worker.py``) as a closed loop of epochs, one client, each epoch being
``run_epoch()`` followed by ``regressions()``.  A run repeats whole
campaigns while the next one is expected to end within ``--seconds`` (at
least the workload's minimum), and where set-up is cheap samples it in a
few extra set-up-only interpreters too.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs the campaign untraced, traced and untraced again, and prints the
per-layer metrics of the traced one.  Every line before the last is for people; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".campaign_bench"

sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    epoch_growth, growth_windows, percentile, tail_percentile,
)
from workloads import WORKLOADS, make_inputs  # noqa: E402

#: a run stops starting campaigns once it has run this long, so it ends
#: well inside three minutes
RUN_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 170.0

#: end-to-end metrics and their units, as BENCHMARK.json lists them
END_TO_END: Dict[str, str] = {
    "epoch_p50_ms": "ms",
    "epoch_tail_ms": "ms",
    "epochs_per_s": "1/s",
    "epoch_growth": "ratio",
    "setup_s": "s",
    "write_mb": "MB",
    "disk_mb": "MB",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def launch(spec: Dict[str, Any], rundir: Path, mode: str,
           trace: bool = False) -> Dict[str, Any]:
    """One worker interpreter; returns its measurements."""
    rundir.mkdir(parents=True)
    spec_path = rundir / "spec.json"
    result_path = rundir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spec = dict(spec, mode=mode, trace=trace)
    spec["spawn_monotonic"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), spec_path.name,
         result_path.name],
        cwd=rundir, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{mode} worker in {rundir.name} exited with "
                         f"code {proc.returncode}")
    result = json.loads(result_path.read_text())
    shutil.rmtree(rundir)
    return result


def campaign_metrics(r: Dict[str, Any], epochs: int) -> Dict[str, float]:
    """One campaign's end-to-end figures (``setup_s`` is pooled apart)."""
    times = r["epoch_s"]
    p, _ = tail_percentile(len(times))
    early, last = growth_windows(epochs)
    runs = r["runs"]
    failed_checks = sum(1 for _, ok, _ in r["checks"] if not ok)
    failures = runs["not_completed"] + r["failed_epochs"] + failed_checks
    return {
        "epoch_p50_ms": statistics.median(times) * 1e3,
        "epoch_tail_ms": percentile(times, p) * 1e3,
        "epochs_per_s": len(times) / r["wall_s"],
        "epoch_growth": epoch_growth(times, early, last),
        "write_mb": r["write_bytes"] / 1e6,
        "disk_mb": r["disk_bytes"] / 1e6,
        "peak_rss_mb": r["maxrss_kb"] / 1024,
        "ok_frac": 1.0 - failures / max(1, runs["runs"]),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: Dict[str, Any], untraced: List[Dict[str, Any]]
                  ) -> Dict[str, Tuple[float, str]]:
    """The per-layer figures of one traced campaign.  Times come from its
    spans; every counter comes from the program's public state.

    The tracing overhead leaves out the first epoch: instrumenting imports
    the wrapped modules before it, which an untraced first epoch imports
    lazily.
    """
    totals = traced["layers"]["totals"]

    def busy(name: str) -> float:
        return totals.get(name, {}).get("busy_s", 0.0)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    runs = traced["runs"]
    wall = traced["wall_s"]
    unattributed = (wall - traced["layers"]["root_wall_s"]
                    + self_s("core.epoch") + self_s("core.regressions"))
    return {
        "core.driver.busy_s": (busy("core.driver"), "s"),
        "core.epoch.self_s": (self_s("core.epoch"), "s"),
        "core.checkpoint.mb": (traced["checkpoint_bytes"] / 1e6, "MB"),
        "core.resume.busy_s": (traced["layers"]["resume_s"], "s"),
        "ramble.setup.self_s": (self_s("ramble.setup"), "s"),
        "ramble.run.self_s": (self_s("ramble.run"), "s"),
        "ramble.analyze.busy_s": (busy("ramble.analyze"), "s"),
        "ramble.experiments": (runs["executed"], "count"),
        "spack.concretize.busy_s": (busy("spack.concretize"), "s"),
        "spack.concretize.hit_ratio": (
            ratio(traced["memo"]["hits"], traced["memo"]["lookups"]), "ratio"),
        "spack.install.busy_s": (busy("spack.install"), "s"),
        "spack.install.count": (traced["install_count"], "count"),
        "systems.execute.self_s": (self_s("systems.execute"), "s"),
        "systems.execute.count": (runs["completed"], "count"),
        "benchmarks.kernel.busy_s": (busy("benchmarks.kernel"), "s"),
        "benchmarks.kernel.count": (runs["kernels"], "count"),
        "resilience.execute.self_s": (self_s("resilience.execute"), "s"),
        "resilience.attempts": (runs["attempts"], "count"),
        "resilience.retries": (runs["retries"], "count"),
        "resilience.faults": (runs["faults"], "count"),
        "resilience.backoff_s": (runs["backoff_s"], "s"),
        "resilience.useful_ratio": (
            ratio(runs["completed"], runs["attempts"]), "ratio"),
        "ci.ingest.busy_s": (busy("ci.ingest"), "s"),
        "ci.ingest.records": (traced["records_added"], "count"),
        "analysis.scan.busy_s": (busy("analysis.scan"), "s"),
        "analysis.scan.events": (traced["events"], "count"),
        "perf.result_cache.hit_ratio": (
            ratio(traced["cache"]["hits"], traced["cache"]["lookups"]),
            "ratio"),
        "perf.store.busy_s": (busy("perf.store"), "s"),
        "perf.fingerprint.busy_s": (busy("perf.fingerprint"), "s"),
        "trace.unattributed_frac": (ratio(unattributed, wall), "ratio"),
        "trace.overhead_frac": (
            sum(traced["epoch_s"][1:])
            / statistics.fmean(sum(r["epoch_s"][1:]) for r in untraced) - 1.0,
            "ratio"),
    }


def environment() -> Dict[str, str]:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "workdir_fs": filesystem_of(SCRATCH),
    }


def filesystem_of(path: Path) -> str:
    """Type of the mount holding ``path``, from ``/proc/mounts``."""
    best, fstype = "", "unknown"
    mounts = Path("/proc/mounts")
    if not mounts.exists():
        return fstype
    target = str(path.resolve())
    for line in mounts.read_text().splitlines():
        fields = line.split()
        if len(fields) >= 3 and (target == fields[1] or target.startswith(
                fields[1].rstrip("/") + "/")) and len(fields[1]) > len(best):
            best, fstype = fields[1], fields[2]
    return fstype


def measure(args, workload, spec, scratch: Path) -> Tuple[dict, List[dict], List[str]]:
    """Run the workload; returns (metrics, campaign results, notes)."""
    notes: List[str] = []
    epochs = spec["epochs"]
    if args.trace:
        # untraced, traced, untraced: the overhead is taken against both
        # neighbours, so a drift or order effect over the run cancels
        results = [
            launch(spec, scratch / "untraced-0", "campaign"),
            launch(spec, scratch / "traced", "campaign", trace=True),
            launch(spec, scratch / "untraced-1", "campaign"),
        ]
        traced = results[1]
        metrics = layer_metrics(traced, results[::2])
        notes.append(f"traced campaign: {traced['layers']['spans']} spans "
                     f"over {len(traced['epoch_s'])} epochs")
        return metrics, results, notes

    probes = min(1, workload.setup_probes) if args.quick else workload.setup_probes
    setups = [launch(spec, scratch / f"setup-{i}", "setup")["setup_s"]
              for i in range(probes)]
    results = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(launch(spec, scratch / f"campaign-{len(results)}",
                              "campaign"))
        # start another campaign only if it should end within the run
        ends = time.monotonic() - start + (time.monotonic() - t0)
        if len(results) >= workload.min_campaigns and (
                ends > args.seconds or ends > RUN_LIMIT_S):
            break
    setups += [r["setup_s"] for r in results]
    per = [campaign_metrics(r, epochs) for r in results]
    per = [dict(m, setup_s=statistics.median(setups)) for m in per]
    metrics = {name: (statistics.median(m[name] for m in per), unit)
               for name, unit in END_TO_END.items()}
    p, beyond = tail_percentile(epochs)
    notes.append(f"epoch_tail_ms is p{p} of {epochs} epochs per campaign "
                 f"({beyond} beyond it), median over {len(results)} "
                 f"campaign(s); setup_s is the median of {len(setups)} "
                 f"set-ups")
    return metrics, results, notes


def run_checks(workload, results: List[dict]) -> List[Tuple[str, bool, str]]:
    checks = []
    for i, r in enumerate(results):
        for name, ok, detail in r["checks"]:
            checks.append((f"campaign {i}: {name}", ok, detail))
    if workload.faulty and len(results) > 1:
        same = all(r["attempt_history"] == results[0]["attempt_history"]
                   for r in results)
        checks.append(("same seed, same attempt_history", same,
                       f"over {len(results)} campaigns"))
    return checks


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny history, for testing the benchmark itself")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    # build: byte-compile the sources once, so no timed interpreter pays it
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the program's sources do not compile", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = make_inputs(workload, args.seed, quick=args.quick)
    scratch = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        metrics, results, notes = measure(args, workload, spec, scratch)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.exists() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    checks = run_checks(workload, results)
    failed = sum(1 for _, ok, _ in checks if not ok) + sum(
        r["failed_epochs"] for r in results)
    attempted = sum(len(r["epoch_s"]) + r["failed_epochs"] for r in results)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}: {json.dumps(spec, sort_keys=True)}")
    for key, value in environment().items():
        print(f"env {key} = {value}")
    for note in notes:
        print(note)
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
