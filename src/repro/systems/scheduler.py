"""Batch scheduler simulator — the ``sbatch``/``bsub``/``flux batch`` layer.

Event-driven simulation of a space-shared cluster: jobs request nodes and
have (simulated) durations; the scheduler assigns start times under either

* **fifo** — strict arrival order; a big job at the head blocks the queue;
* **backfill** — EASY backfilling: later jobs may start early iff they fit
  in the current hole and do not delay the head job's reservation.

The paper's continuous-benchmarking loop submits experiment scripts through
exactly this layer (workflow step 8), and the fifo-vs-backfill makespan
difference is one of our DESIGN.md §6 ablations.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from .descriptor import SystemDescriptor

__all__ = ["Job", "BatchScheduler", "SchedulerError"]


class SchedulerError(RuntimeError):
    pass


@dataclass
class Job:
    """One batch job."""

    name: str
    nodes: int
    duration: float  # simulated seconds of runtime
    submit_time: float = 0.0
    user: str = "nobody"
    job_id: int = 0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: how many times this job has been (re)submitted — a transient fault
    #: requeues the job rather than failing the campaign
    attempts: int = 1

    @property
    def wait_time(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def finished(self) -> bool:
        return self.end_time is not None


class BatchScheduler:
    """Simulated scheduler for one system."""

    def __init__(self, system: SystemDescriptor, policy: str = "backfill"):
        if policy not in ("fifo", "backfill"):
            raise SchedulerError(f"unknown policy {policy!r}; use fifo|backfill")
        self.system = system
        self.policy = policy
        self._ids = itertools.count(1)
        self.queue: List[Job] = []
        self.completed: List[Job] = []
        #: (end_time, nodes, job) for running jobs
        self._running: List[tuple] = []
        self.now = 0.0
        self.free_nodes = system.nodes

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> int:
        if job.nodes <= 0:
            raise SchedulerError(f"job {job.name!r}: nodes must be positive")
        if job.nodes > self.system.nodes:
            raise SchedulerError(
                f"job {job.name!r} requests {job.nodes} nodes but "
                f"{self.system.name} has {self.system.nodes}"
            )
        if not (math.isfinite(job.duration) and job.duration > 0):
            raise SchedulerError(
                f"job {job.name!r}: duration must be positive and finite, "
                f"got {job.duration}"
            )
        job.job_id = next(self._ids)
        job.submit_time = max(job.submit_time, self.now)
        self.queue.append(job)
        return job.job_id

    def requeue(self, job: Job, delay: float = 0.0) -> int:
        """Re-submit a completed (faulted) job as a fresh attempt.

        The job keeps its identity but gets a new submit time (``now +
        delay`` — the retry policy's backoff maps to ``delay``), cleared
        start/end times, and an incremented attempt counter.  Its previous
        completion record is dropped so stats count it once.
        """
        if not job.finished:
            raise SchedulerError(
                f"job {job.name!r} is not finished; cannot requeue"
            )
        if delay < 0:
            raise SchedulerError(f"requeue delay must be >= 0, got {delay}")
        if job in self.completed:
            self.completed.remove(job)
        job.start_time = None
        job.end_time = None
        job.attempts += 1
        job.submit_time = self.now + delay
        self.queue.append(job)
        return job.job_id

    # ------------------------------------------------------------------
    def _start(self, job: Job) -> None:
        job.start_time = self.now
        job.end_time = self.now + job.duration
        self.free_nodes -= job.nodes
        heapq.heappush(self._running, (job.end_time, job.job_id, job))

    def _finish_next(self) -> None:
        end_time, _, job = heapq.heappop(self._running)
        self.now = max(self.now, end_time)
        self.free_nodes += job.nodes
        self.completed.append(job)

    def _eligible(self) -> List[Job]:
        return [j for j in self.queue if j.submit_time <= self.now]

    def _schedule_pass(self) -> bool:
        """Start whatever can start now; True if anything started."""
        started = False
        eligible = sorted(self._eligible(), key=lambda j: (j.submit_time, j.job_id))
        if not eligible:
            return False
        head = eligible[0]
        if head.nodes <= self.free_nodes:
            self.queue.remove(head)
            self._start(head)
            return True
        if self.policy == "fifo":
            return False
        # EASY backfill: compute the head job's reservation — the earliest
        # time enough nodes free up — then start any later job that fits now
        # and ends by then.
        reservation = self._head_reservation(head)
        for job in eligible[1:]:
            if job.nodes <= self.free_nodes and self.now + job.duration <= reservation:
                self.queue.remove(job)
                self._start(job)
                started = True
                # free_nodes changed; the head may still be blocked, continue
        return started

    def _head_reservation(self, head: Job) -> float:
        free = self.free_nodes
        for end_time, _, job in sorted(self._running):
            free += job.nodes
            if free >= head.nodes:
                return end_time
        return float("inf")

    # ------------------------------------------------------------------
    def run_until_complete(self, max_events: int = 1_000_000) -> float:
        """Advance the simulation until queue and machine drain; returns
        the makespan (time of last completion)."""
        for _ in range(max_events):
            if not self.queue and not self._running:
                return self.now
            while self._schedule_pass():
                pass
            if self._running:
                self._finish_next()
            elif self.queue:
                # Nothing running and nothing startable: jump to the next
                # future submit time.
                future = min(j.submit_time for j in self.queue)
                if future <= self.now:
                    raise SchedulerError(
                        "deadlock: queued jobs cannot start on an idle machine"
                    )
                self.now = future
        raise SchedulerError("scheduler exceeded event budget")

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        if not self.completed:
            return {"jobs": 0, "makespan": 0.0, "avg_wait": 0.0, "max_wait": 0.0}
        waits = [j.wait_time or 0.0 for j in self.completed]
        return {
            "jobs": len(self.completed),
            "makespan": max(j.end_time or 0.0 for j in self.completed),
            "avg_wait": sum(waits) / len(waits),
            "max_wait": max(waits),
        }
