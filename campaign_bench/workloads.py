"""The campaign workloads and the inputs each makes from its seed.

Every workload is one ``ContinuousBenchmarking`` campaign driven as a
closed loop by a single client: the next epoch starts only when the
previous epoch and its regression verdict are done.

``BENCHMARK.json`` lists ``cold-history`` and ``faulty-stream``.
``warm-replay`` runs the same way by hand: with its cold set-up pass, three
workloads do not fit enough campaigns per run into the time the benchmark
has on a noisy two-core machine (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiment: str
    #: history length: epochs per campaign, and in the quick mode
    epochs: int
    quick_epochs: int
    #: FOM records every epoch must add, when the experiment fixes it
    foms_per_epoch: Optional[int] = None
    #: seeded bad-DIMM incident plus transient faults and retries
    faulty: bool = False
    #: set-up runs the campaign once cold to fill the result cache, and the
    #: timed campaign replays it
    warm: bool = False
    #: extra set-up-only processes per run, for a steadier ``setup_s``;
    #: none where set-up is itself a cold campaign
    setup_probes: int = 4
    #: campaigns per run at the least (more while they fit in the run), so
    #: that medians span more than one moment of a noisy machine; two also
    #: let a run check that the same seed gives the same attempt history
    min_campaigns: int = 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="cold-history",
        why="saxpy records 24 FOMs an epoch over a long cold history, so "
            "every cost that grows with history shows, with the full "
            "ramble/spack set-up path",
        experiment="saxpy/openmp",
        epochs=100,
        quick_epochs=6,
        foms_per_epoch=24,
        setup_probes=2,
        min_campaigns=3,
    ),
    Workload(
        name="faulty-stream",
        why="the real STREAM kernel dominates; seeded faults, retries and a "
            "bad-DIMM incident exercise resilience and the detector",
        experiment="stream/openmp",
        epochs=100,
        quick_epochs=16,
        faulty=True,
        setup_probes=2,
        min_campaigns=3,
    ),
    Workload(
        name="warm-replay",
        why="every epoch is a result-cache hit, so only checkpoint, ingest, "
            "perf and analysis run; the read side of the cache",
        experiment="saxpy/openmp",
        epochs=60,
        quick_epochs=5,
        foms_per_epoch=24,
        warm=True,
        setup_probes=0,
        min_campaigns=2,
    ),
)}

SYSTEM = "cts1"

#: per-attempt transient fault rates of the faulty workload
FAULT_RATES = {"node_failure": 0.08, "fs_hiccup": 0.05}
MAX_ATTEMPTS = 3
BAD_DIMM_FACTOR = 0.5
#: the faulty workload's detector: a 30% drop sustained over three epochs.
#: The bad DIMM halves bandwidth; the default 10% over two epochs also
#: fires on the real STREAM kernel's noise on a shared machine, before any
#: incident (a 22% two-epoch dip at epoch 4 was seen in one of 15 campaigns).
DETECTOR = {"threshold": 0.30, "window": 3}


def make_inputs(workload: Workload, seed: int, quick: bool = False
                ) -> Dict[str, Any]:
    """The campaign's inputs, a pure function of (workload, seed, quick).

    The seed picks the fault-injector salt and the degradation onset and
    repair; the healthy workloads take nothing from it.
    """
    epochs = workload.quick_epochs if quick else workload.epochs
    spec: Dict[str, Any] = {
        "workload": workload.name,
        "experiment": workload.experiment,
        "system": SYSTEM,
        "epochs": epochs,
        "foms_per_epoch": workload.foms_per_epoch,
        "warm": workload.warm,
        "schedule": [],
        "faults": None,
        "detector": None,
    }
    if workload.faulty:
        rng = random.Random(f"{workload.name}:{seed}")
        onset = rng.randint(int(0.40 * epochs), int(0.55 * epochs))
        # a short incident: the detector reports the most extreme window of
        # a degraded stretch, which over a long one could be anywhere in it
        repair = onset + rng.randint(4, 6)
        spec["schedule"] = [
            [onset, {"name": "bad-dimm", "memory_bw_factor": BAD_DIMM_FACTOR}],
            [repair, {"name": "repaired"}],
        ]
        spec["faults"] = {
            "salt": f"{rng.getrandbits(64):016x}",
            "rates": dict(FAULT_RATES),
            "max_attempts": MAX_ATTEMPTS,
        }
        spec["detector"] = dict(DETECTOR)
    return spec
