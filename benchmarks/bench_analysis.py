"""Analysis-engine benchmark: cold batch analysis vs. the warm incremental
engine, over the same synthetic multi-epoch campaign.

Per epoch the analysis stack answers three questions: which series
regressed, how do the scaling series model, and what does the dashboard
look like now.  The **cold** pass answers them from scratch with a fresh
:class:`~repro.analysis.engine.AnalysisEngine` every epoch — every series
is fed from its first sample and every Extra-P model is refit.  The
**warm** pass answers them through one persistent engine: per-series
regression state fed only new samples, and a per-series model memo that
refits only series an epoch extended.  Both passes run the same code and
render the dashboard with ``render_report`` over the same columnar
database; each records its stages as Caliper regions (``analysis:*``).

Correctness is asserted, not assumed: final regression events, Extra-P
model strings, and the stored records must be identical between passes —
the engine's contract is bit-identical results, only faster.

Writes ``BENCH_analysis.json`` and exits non-zero if the warm pass is not
at least ``--min-speedup`` times faster.  Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_analysis.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import CaliperSession, render_report
from repro.analysis.engine import AnalysisEngine
from repro.ci import MetricsDatabase

SYSTEMS = ("cts1", "tioga", "sierra")
BENCHMARKS = ("stream", "amg2023", "quicksilver")
FOMS = (("triad_bw", True), ("walltime", False))
NPROCS = (2, 4, 8, 16, 32)
THRESHOLD, WINDOW = 0.10, 3
SCALING_EVERY = 5  # epochs between scaling-series extensions


def _targets(systems, benchmarks):
    return [(b, s, f, hib)
            for b in benchmarks for s in systems for f, hib in FOMS]


def synthesize_epoch(epoch: int, systems, benchmarks) -> list:
    """Deterministic records for one campaign epoch: 2 experiments per
    (system, benchmark, fom) with mild noise, a 20% step regression
    injected into one third of the series at 60% of the campaign, a flaky
    retry record now and then, and — every SCALING_EVERY epochs — a
    strong-scaling sweep over NPROCS for model fitting."""
    records = []
    for bi, benchmark in enumerate(benchmarks):
        for si, system in enumerate(systems):
            rng = np.random.default_rng(epoch * 7919 + bi * 131 + si)
            for fom, hib in FOMS:
                base = 100.0 if hib else 10.0
                regressed = (bi + si) % 3 == 0 and epoch >= 12
                if regressed:
                    base *= 0.78 if hib else 1.25
                for exp in ("exp0", "exp1"):
                    manifest = {"epoch": str(epoch)}
                    if epoch % 7 == 3 and exp == "exp1" and fom == "triad_bw":
                        manifest.update(flaky="true", attempts="2")
                    value = base * (1.0 + 0.02 * rng.standard_normal())
                    records.append((benchmark, system, exp, fom,
                                    float(value), "u", manifest))
            if epoch % SCALING_EVERY == 0:
                for p in NPROCS:
                    seconds = 1.0 + 0.05 * p + 0.001 * epoch
                    records.append((benchmark, system, f"scale{p}",
                                    "total_time", float(seconds), "s",
                                    {"nprocs": str(p),
                                     "scale_epoch": str(epoch)}))
    return records


def _ingest(db: MetricsDatabase, records) -> None:
    for benchmark, system, exp, fom, value, units, manifest in records:
        db.record(benchmark, system, exp, fom, value, units, dict(manifest))


def _analyze(engine: AnalysisEngine, db: MetricsDatabase, targets):
    """One epoch's questions: regression events, models, dashboard."""
    events = engine.scan(targets)
    models = {}
    for benchmark, system, _, _ in targets[::2]:
        model = engine.model(benchmark, system, "total_time")
        if model is not None:
            models[(benchmark, system)] = str(model)
    with engine.caliper.region("analysis:dashboard"):
        render_report(db)
    return events, models


def run_cold(epoch_records, targets, caliper: CaliperSession):
    """Per-epoch analysis from scratch: a fresh engine rescans every series
    and refits every model."""
    db = MetricsDatabase()
    events = models = None
    for records in epoch_records:
        _ingest(db, records)
        engine = AnalysisEngine(db, threshold=THRESHOLD, window=WINDOW,
                                caliper=caliper)
        events, models = _analyze(engine, db, targets)
    return db, events, models


def run_warm(epoch_records, targets, caliper: CaliperSession):
    """The same questions answered through one persistent AnalysisEngine."""
    db = MetricsDatabase()
    engine = AnalysisEngine(db, threshold=THRESHOLD, window=WINDOW,
                            caliper=caliper)
    events = models = None
    for records in epoch_records:
        _ingest(db, records)
        events, models = _analyze(engine, db, targets)
    return db, events, models


def bench(epochs: int, systems, benchmarks) -> dict:
    targets = _targets(systems, benchmarks)
    epoch_records = [synthesize_epoch(e, systems, benchmarks)
                     for e in range(epochs)]

    cold_caliper = CaliperSession()
    t0 = time.perf_counter()
    cold_db, cold_events, cold_models = run_cold(
        epoch_records, targets, cold_caliper)
    cold_s = time.perf_counter() - t0

    warm_caliper = CaliperSession()
    t0 = time.perf_counter()
    warm_db, warm_events, warm_models = run_warm(
        epoch_records, targets, warm_caliper)
    warm_s = time.perf_counter() - t0

    # Correctness gates: the engine must be invisible in the results.
    assert [str(e) for e in cold_events] == [str(e) for e in warm_events], \
        "incremental regression events diverged from batch recomputation"
    assert cold_models == warm_models, \
        "memoized Extra-P model strings diverged from fresh fits"
    assert cold_db.to_records() == warm_db.to_records()

    return {
        "epochs": epochs,
        "series_tracked": len(targets),
        "records": len(cold_db),
        "regression_events": len(warm_events),
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": cold_s / warm_s if warm_s else float("inf"),
        "events_identical": True,
        "models_identical": True,
        "profiler_cold": cold_caliper.snapshot().to_dict(),
        "profiler_warm": warm_caliper.snapshot().to_dict(),
        "_profiles": (cold_caliper.snapshot(), warm_caliper.snapshot()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller campaign; skip the wall-clock speedup "
                             "gate (correctness asserts always apply)")
    parser.add_argument("--epochs", type=int, default=None,
                        help="campaign length (default: 100, or 30 with --quick)")
    parser.add_argument("--out", default=None,
                        help="result JSON path (default: BENCH_analysis.json "
                             "at the repo root; omitted in --quick mode "
                             "unless given)")
    parser.add_argument("--min-speedup", type=float, default=5.0)
    args = parser.parse_args(argv)

    epochs = args.epochs or (30 if args.quick else 100)
    systems = SYSTEMS[:2] if args.quick else SYSTEMS
    benchmarks = BENCHMARKS[:2] if args.quick else BENCHMARKS

    results = bench(epochs, systems, benchmarks)
    cold_profile, warm_profile = results.pop("_profiles")
    results["mode"] = "quick" if args.quick else "full"
    print(json.dumps(results, indent=2))

    # Per-stage breakdown to the job log: where the speedup comes from.
    print("\n# cold (fresh engine per epoch) region tree", file=sys.stderr)
    print(cold_profile.runtime_report(), file=sys.stderr)
    print("\n# warm (persistent engine) region tree", file=sys.stderr)
    print(warm_profile.runtime_report(), file=sys.stderr)

    out = args.out
    if out is None and not args.quick:
        out = str(Path(__file__).resolve().parent.parent
                  / "BENCH_analysis.json")
    if out:
        Path(out).write_text(json.dumps(results, indent=2) + "\n")
        print(f"# wrote {out}", file=sys.stderr)

    if not args.quick and results["speedup"] < args.min_speedup:
        print(f"FAIL: analysis speedup {results['speedup']:.1f}x < "
              f"{args.min_speedup:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
