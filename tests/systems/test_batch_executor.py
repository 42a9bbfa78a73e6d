"""Tests for the batch-queued executor (workflow step 8 with a scheduler)."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.ramble import Workspace
from repro.resilience import FaultTolerantExecutor, RetryPolicy
from repro.resilience.faults import FaultKind, TransientFault
from repro.systems import SystemExecutor, get_system
from repro.systems.batch_executor import BatchExecutor
from repro.systems.scheduler import BatchScheduler, Job, SchedulerError


def _config(n_nodes=("1", "2")):
    return {
        "ramble": {
            "variables": {
                "mpi_command": "srun -N {n_nodes} -n {n_ranks}",
                "n_ranks": "4",
                "batch_time": "2",
            },
            "applications": {"saxpy": {"workloads": {"problem": {
                "experiments": {"saxpy_{n}_{n_nodes}": {
                    "variables": {"n": "256", "n_nodes": list(n_nodes)},
                    "matrices": [["n_nodes"]],
                }}
            }}}},
        }
    }


class TestBatchExecutor:
    def test_execute_queues(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config())
        ws.setup()
        ex = BatchExecutor(get_system("cts1"))
        result = ex.execute(ws.experiments[0])
        assert result["state"] == "queued"
        assert result["job_id"] == 1

    def test_drain_runs_benchmarks(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config())
        ws.setup()
        ex = BatchExecutor(get_system("cts1"))
        outcomes = ex.run_workspace(ws)
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome["state"] == "completed"
            assert outcome["returncode"] == 0
            assert outcome["queue_wait"] is not None
        # logs written → analysis works
        results = ws.analyze()
        assert all(e["status"] == "SUCCESS" for e in results["experiments"])

    def test_queue_wait_and_makespan(self, tmp_path):
        """Two jobs on a one-node system must serialize."""
        from repro.systems.descriptor import InterconnectSpec, SystemDescriptor

        tiny = SystemDescriptor(
            name="tiny", site="t", nodes=1, cores_per_node=8,
            core_gflops=10.0, node_mem_bw_gbs=50.0, memory_per_node_gb=32.0,
            cpu_target="zen3",
            interconnect=InterconnectSpec("net", 1.0, 10.0),
        )
        ws = Workspace.create(tmp_path / "ws", config=_config(("1", "1")))
        ws.setup()
        ex = BatchExecutor(tiny)
        outcomes = ex.run_workspace(ws)
        waits = sorted(o["queue_wait"] for o in outcomes)
        assert waits[0] == 0.0
        assert waits[1] > 0.0  # second job waited for the first
        assert ex.makespan == pytest.approx(2 * 2 * 60.0)

    def test_duration_from_batch_time(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config(("1",)))
        ws.setup()
        ex = BatchExecutor(get_system("cts1"))
        ex.execute(ws.experiments[0])
        job = ex._queued[0][1]
        assert job.duration == 2 * 60.0

    def test_drain_idempotent(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config(("1",)))
        ws.setup()
        ex = BatchExecutor(get_system("cts1"))
        ex.run_workspace(ws)
        assert ex.drain() == []

    def test_drain_runs_one_benchmark_at_a_time(self, tmp_path):
        """Each benchmark is timed for real, so runs must not overlap."""
        ws = Workspace.create(tmp_path / "ws", config=_config(("1", "2", "1")))
        ws.setup()
        ex = BatchExecutor(get_system("cts1"))
        ex.inner = PeakRecorder(ex.inner)
        outcomes = ex.run_workspace(ws)
        assert [o["experiment"] for o in outcomes] == \
            [e.name for e in ws.experiments]
        assert ex.inner.calls == len(ws.experiments) > 1
        assert ex.inner.peak == 1


class PeakRecorder:
    """Inner-executor wrapper that tracks how many runs overlap."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.peak = 0
        self._active = 0
        self._lock = threading.Lock()

    def execute(self, experiment):
        with self._lock:
            self.calls += 1
            self._active += 1
            self.peak = max(self.peak, self._active)
        try:
            time.sleep(0.05)
            return self.inner.execute(experiment)
        finally:
            with self._lock:
                self._active -= 1


class ScriptedInjector:
    """Injector stub faulting on a scripted set of attempts."""

    def __init__(self, fault_attempts):
        self.fault_attempts = set(fault_attempts)

    def sample(self, system, experiment, epoch, attempt):
        if attempt in self.fault_attempts:
            return TransientFault(FaultKind.NODE_FAILURE, system,
                                  experiment, epoch, attempt)
        return None


class TestRetryRequeue:
    def _run(self, tmp_path, executor=None):
        ws = Workspace.create(tmp_path / "ws", config=_config(("1",)))
        ws.setup()
        system = get_system("cts1")
        ex = BatchExecutor(
            system, executor=executor(system) if executor else None)
        (outcome,) = ex.run_workspace(ws)
        return ex, outcome

    def test_faulted_job_reenters_queue_after_backoff(self, tmp_path):
        clean_ex, clean = self._run(tmp_path / "clean")
        ex, outcome = self._run(
            tmp_path / "faulty",
            lambda system: FaultTolerantExecutor(
                SystemExecutor(system),
                injector=ScriptedInjector({1}),
                policy=RetryPolicy(jitter=0.0, base_delay_s=5.0),
            ),
        )
        assert outcome["returncode"] == 0
        assert outcome["attempts"] == 2
        assert outcome["total_backoff_s"] == pytest.approx(5.0)
        assert clean["sched_attempts"] == 1
        assert outcome["sched_attempts"] == 2
        # the retry is submitted when the first attempt ends, plus backoff
        assert outcome["sim_start"] == pytest.approx(clean["sim_end"] + 5.0)
        assert outcome["queue_wait"] == 0.0
        assert ex.makespan == pytest.approx(2 * clean_ex.makespan + 5.0)
        assert ex.scheduler.stats()["jobs"] == 1


def _stub(**variables):
    return SimpleNamespace(name="exp", variables=variables)


class TestNonFiniteInputs:
    """``ramble.yaml`` variables come from outside the program: non-finite
    numbers fall back like unparsable ones (1 node, 30 minutes)."""

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "many"])
    def test_nodes_fall_back_to_one(self, value):
        ex = BatchExecutor(get_system("cts1"))
        ex.execute(_stub(n_nodes=value, batch_time="2"))
        assert ex._queued[0][1].nodes == 1

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "soon"])
    def test_duration_falls_back_to_thirty_minutes(self, value):
        ex = BatchExecutor(get_system("cts1"))
        ex.execute(_stub(n_nodes="1", batch_time=value))
        assert ex._queued[0][1].duration == 30 * 60.0
        assert ex.scheduler.run_until_complete() == 30 * 60.0

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_scheduler_rejects_non_finite_duration(self, duration):
        sched = BatchScheduler(get_system("cts1"))
        with pytest.raises(SchedulerError, match="finite"):
            sched.submit(Job(name="j", nodes=1, duration=duration))
        assert sched.queue == []
