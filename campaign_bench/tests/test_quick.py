"""Each workload end to end at a tiny history (``run.py --quick``)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE.parent / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         ["cold-history", "faulty-stream", "warm-replay"])
def test_quick_end_to_end(workload):
    out, result = run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert f"{name} = " in out
    assert "check FAIL" not in out


def test_quick_traced_reports_every_layer():
    out, result = run("faulty-stream", trace=1)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["resilience.attempts"] >= metrics["systems.execute.count"]
    assert 0 <= metrics["trace.unattributed_frac"] <= 1


def test_same_seed_same_inputs():
    from workloads import WORKLOADS, make_inputs

    for workload in WORKLOADS.values():
        assert make_inputs(workload, 7) == make_inputs(workload, 7)
    faulty = WORKLOADS["faulty-stream"]
    assert make_inputs(faulty, 7) != make_inputs(faulty, 8)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    bench = tmp_path / "campaign_bench"
    bench.mkdir()
    for f in HERE.parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cold-history",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
