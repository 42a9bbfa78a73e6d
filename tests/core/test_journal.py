"""The campaign journal: append-only campaign state, one line per epoch.

A resumed campaign must hold exactly the state the killed one had — records
byte for byte, attempt history and result-cache statistics — and a torn
last line must cost only the epoch it was writing.
"""

import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.core.continuous import ContinuousBenchmarking
from repro.perf import ContentStore
from repro.resilience import FaultKind, RetryPolicy, TransientFaultInjector

SAXPY = "saxpy/openmp"
STREAM = "stream/openmp"
SYSTEM = "cts1"


def _faulty(workdir, **kwargs):
    return ContinuousBenchmarking(
        STREAM, SYSTEM, workdir,
        injector=TransientFaultInjector({FaultKind.NODE_FAILURE: 0.6},
                                        salt="journal-test"),
        retry_policy=RetryPolicy(max_attempts=5, base_delay_s=0.0,
                                 jitter=0.0),
        **kwargs,
    )


def _lines(loop):
    """The journal's header and epoch lines, parsed."""
    header, *epochs = [json.loads(line) for line in
                       loop.journal_path.read_text().splitlines()]
    return header, epochs


def _rows_through(records, epochs):
    """The records of epochs ``0 .. epochs - 1``."""
    return [r for r in records if int(r["manifest"]["epoch"]) < epochs]


class TestResumeIdentity:
    def test_resume_restores_state_exactly(self, tmp_path):
        killed = _faulty(tmp_path / "k").run_until(3)
        before = json.dumps(killed.db.to_records())
        stats_before = killed.result_cache.stats()
        assert killed.attempt_history, "fault rate 0.6 must retry some runs"

        resumed = _faulty(tmp_path / "k")  # a fresh default result cache
        assert resumed.epochs_run == 3
        assert json.dumps(resumed.db.to_records()) == before
        assert resumed.attempt_history == killed.attempt_history
        assert resumed.result_cache.stats() == stats_before

        resumed.run_until(6)
        n = len(killed.db)
        assert json.dumps(resumed.db.to_records()[:n]) == before
        stats = resumed.result_cache.stats()
        # the three new epochs were three new lookups, all misses
        assert stats["hits"] == stats_before["hits"]
        assert stats["misses"] == stats_before["misses"] + 3

        straight = _faulty(tmp_path / "s").run_until(6)
        # faults are salted, not timed: the same retries at the same points
        assert resumed.attempt_history == straight.attempt_history
        assert resumed.result_cache.stats() == straight.result_cache.stats()

        def without_values(loop):
            out = []
            for r in loop.db.to_records():
                r.pop("value")
                out.append(r)
            return json.dumps(out).replace(str(loop.workdir), "<workdir>")

        # FOM values are real timings; everything else must agree
        assert without_values(resumed) == without_values(straight)


class TestTornWrites:
    N = 3

    def test_torn_last_line_reruns_that_epoch(self, tmp_path):
        loop = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path).run(self.N)
        records = loop.db.to_records()
        full = loop.journal_path.read_bytes()
        last = full.rindex(b"\n", 0, len(full) - 1) + 1  # start of line N
        cuts = [full[:last + 1], full[:(last + len(full)) // 2],
                full[:-1],  # just before its newline
                full[:last] + b'{"epochs_run":3,"ru\n']  # ends, but no JSON
        kept = json.dumps(_rows_through(records, self.N - 1))
        for torn in cuts:
            loop.journal_path.write_bytes(torn)
            resumed = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path)
            assert resumed.epochs_run == self.N - 1
            assert json.dumps(resumed.db.to_records()) == kept
            assert loop.journal_path.read_bytes() == full[:last]

            resumed.run_until(self.N)
            seqs = [r["seq"] for r in resumed.db.to_records()]
            assert seqs == list(range(1, len(records) + 1))
            _, epochs = _lines(resumed)
            assert [e["epochs_run"] for e in epochs] == [1, 2, 3]

    def test_torn_header_starts_fresh(self, tmp_path):
        loop = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path).run(1)
        header_end = loop.journal_path.read_bytes().index(b"\n")
        for cut in (0, header_end // 2, header_end):
            loop.journal_path.write_bytes(
                loop.journal_path.read_bytes()[:cut])
            fresh = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path)
            assert fresh.epochs_run == 0 and len(fresh.db) == 0
            fresh.run_epoch()
            header, epochs = _lines(fresh)
            assert header["version"] == 2 and len(epochs) == 1


class TestOtherDamage:
    def test_corrupt_middle_line_rejected(self, tmp_path):
        loop = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path).run(3)
        lines = loop.journal_path.read_bytes().split(b"\n")
        lines[2] = lines[2][:40]  # epoch 1 of 3
        loop.journal_path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match="campaign.journal"):
            ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path)

    @pytest.mark.parametrize("field,value", [
        ("experiment", STREAM), ("system", "ats2"), ("version", 3)])
    def test_foreign_header_rejected(self, tmp_path, field, value):
        loop = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path).run(1)
        header, rest = loop.journal_path.read_bytes().split(b"\n", 1)
        header = dict(json.loads(header), **{field: value})
        loop.journal_path.write_bytes(json.dumps(header).encode() + b"\n"
                                      + rest)
        with pytest.raises(ValueError, match="checkpoint"):
            ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path)

    def test_resume_false_starts_a_new_journal(self, tmp_path):
        ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path).run(2)
        ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path, resume=False).run(1)
        resumed = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path)
        assert resumed.epochs_run == 1
        assert {r.manifest["epoch"] for r in resumed.db.query()} == {"0"}

    def test_version_1_checkpoint_rejected(self, tmp_path):
        (tmp_path / "campaign_checkpoint.json").write_text(
            json.dumps({"version": 1, "experiment": SAXPY, "system": SYSTEM,
                        "epochs_run": 0, "records": []}))
        with pytest.raises(ValueError, match="resume=False"):
            ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path)
        fresh = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path, resume=False)
        assert fresh.run(1).epochs_run == 1


def test_journal_bytes_per_epoch_stay_flat(tmp_path):
    """Each epoch writes its own state once: late epochs cost no more
    bytes than early ones, however long the history."""
    loop = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path)
    size = []
    for _ in range(60):
        loop.run_epoch()
        size.append(loop.journal_path.stat().st_size)
    early = (size[29] - size[9]) / 20  # epochs 10-29
    late = (size[59] - size[39]) / 20  # epochs 40-59
    assert late <= 1.1 * early


class TestSharedStore:
    def test_foreign_entries_journaled_once(self, tmp_path):
        shared = ContentStore("epoch-results")
        ContinuousBenchmarking(STREAM, SYSTEM, tmp_path / "cold",
                               result_cache=shared).run(8)
        foreign = {k for k, _ in shared.items()}
        assert len(foreign) == 8
        ContinuousBenchmarking(STREAM, SYSTEM, tmp_path / "warm",
                               result_cache=shared).run(5)
        # killed after 5; resumed with a fresh store, it replays the rest
        # from the entries its journal holds
        resumed = ContinuousBenchmarking(STREAM, SYSTEM, tmp_path / "warm")
        resumed.run_until(8)
        assert resumed.caliper.snapshot().regions()["epoch:replay"].visits == 3
        assert resumed.result_cache.stats()["hits"] == 8

        _, epochs = _lines(resumed)
        written = Counter(k for e in epochs for k in e["entries"])
        assert written == Counter(foreign)
        assert all(e["key"] is None for e in epochs)

    def test_warm_records_equal_cold(self, tmp_path):
        shared = ContentStore("epoch-results")
        cold = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path / "cold",
                                      result_cache=shared).run(3)
        entries = json.dumps(shared.items())
        warm = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path / "warm",
                                      result_cache=shared).run(3)
        # replays tag copies; the shared entries stay as the cold run left them
        assert json.dumps(shared.items()) == entries
        stripped = warm.db.to_records()
        for r in stripped:
            assert r["manifest"].pop("cached") == "true"
            assert r["manifest"].pop("cache_provenance")
        assert json.dumps(stripped) == json.dumps(cold.db.to_records())


def test_sigkilled_campaign_resumes(tmp_path):
    """A real kill: a child process runs the campaign and is SIGKILLed
    once its journal holds 4 epochs, wherever that lands in epoch 4."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    journal = tmp_path / "campaign.journal"
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.core.continuous import ContinuousBenchmarking;"
         f" ContinuousBenchmarking({SAXPY!r}, {SYSTEM!r}, sys.argv[1])"
         ".run_until(10)", str(tmp_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not (journal.exists()
                   and journal.read_bytes().count(b"\n") >= 5):
            assert child.poll() is None, "campaign exited before the kill"
            assert time.monotonic() < deadline, "campaign made no progress"
            time.sleep(0.002)
        child.send_signal(signal.SIGKILL)
    finally:
        child.kill()
        child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL

    # the epochs whose lines were complete at the kill
    data = journal.read_bytes()
    done = data[:data.rfind(b"\n") + 1].count(b"\n") - 1
    assert 4 <= done < 10
    before = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path)
    assert before.epochs_run == done
    journaled = json.dumps(before.db.to_records())

    resumed = ContinuousBenchmarking(SAXPY, SYSTEM, tmp_path).run_until(10)
    records = resumed.db.to_records()
    per_epoch = Counter(r["manifest"]["epoch"] for r in records)
    assert sorted(per_epoch, key=int) == [str(e) for e in range(10)]
    assert len(set(per_epoch.values())) == 1  # each epoch exactly once
    assert json.dumps(_rows_through(records, done)) == journaled
