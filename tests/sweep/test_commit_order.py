"""Ordering and durability of the broker's group commits.

Each test records the parent process's ``os.open``/``os.fsync``/
``os.replace``/``os.write`` calls during a real sweep and checks the
promises the journal makes:

* a ``done`` record is written only after its cache entry was fsynced,
  published with ``os.replace`` and the cache directory fsynced;
* ``retry``/``quarantine``/``interrupt``/``end`` records follow the
  ``done`` record of every completion the broker saw before them;
* a cold run issues at most ``entries + 2 x groups`` fsyncs;
* an error in the commit thread fails the run on the calling thread.

A last test drives the commit queue alone under thread contention: it
loses, duplicates and reorders nothing.
"""

from __future__ import annotations

import json
import multiprocessing.connection  # noqa: F401 — bind its os.write before patching
import os
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.sweep import (
    EstimatorSpec,
    ExperimentSpec,
    PredictorSpec,
    ResultCache,
    journal_path,
    replay_journal,
    run_sweep,
)
from repro.sweep.broker import Broker, SweepInterrupted, _Completion, _GroupCommitter
from repro.sweep.faults import FaultInjector
from repro.sweep.grid import expand


def make_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="commit-order",
        predictors=(PredictorSpec.of("gshare"), PredictorSpec.of("bimodal")),
        estimators=(EstimatorSpec.of("jrs"),),
        traces=("INT-1", "MM-1", "SERV-1", "FP-1"),
        n_branches=600,
    )


class IoLog:
    """The parent's file syscalls, in call order, by path."""

    def __init__(self, monkeypatch) -> None:
        self.events: list[tuple] = []
        self._paths: dict[int, str] = {}
        real = {name: getattr(os, name)
                for name in ("open", "close", "fsync", "replace", "write")}

        def open_(path, flags, *args, **kwargs):
            fd = real["open"](path, flags, *args, **kwargs)
            self._paths[fd] = os.fspath(path)
            return fd

        def close(fd):
            self._paths.pop(fd, None)
            return real["close"](fd)

        def fsync(fd):
            self.events.append(("fsync", self._paths.get(fd)))
            return real["fsync"](fd)

        def replace(src, dst, *args, **kwargs):
            self.events.append(("replace", os.fspath(src), os.fspath(dst)))
            return real["replace"](src, dst, *args, **kwargs)

        def write(fd, data):
            path = self._paths.get(fd)
            if path is not None and path.endswith(".jsonl"):
                self.events.append(("journal", bytes(data)))
            return real["write"](fd, data)

        for name, fn in (("open", open_), ("close", close), ("fsync", fsync),
                         ("replace", replace), ("write", write)):
            monkeypatch.setattr(os, name, fn)

    def journal_writes(self) -> list[tuple[int, list[dict]]]:
        """(event position, records) of every journal write."""
        return [
            (position, [json.loads(line) for line in event[1].splitlines()])
            for position, event in enumerate(self.events)
            if event[0] == "journal"
        ]

    def fsyncs(self) -> list[str]:
        return [event[1] for event in self.events if event[0] == "fsync"]


def journal_lines(cache: ResultCache, run_id: str) -> list[dict]:
    path = journal_path(cache.root / "runs", run_id)
    return [json.loads(line) for line in path.read_bytes().splitlines()]


def record_broker_order(monkeypatch) -> list[tuple[str, int]]:
    """What the broker thread saw, in order: each job it completed and
    each failure it classified (a retry or a quarantine record)."""
    order: list[tuple[str, int]] = []
    complete, fail = Broker._complete, Broker._fail

    def traced_complete(self, index, state, outcome, results):
        order.append(("done", index))
        return complete(self, index, state, outcome, results)

    def traced_fail(self, index, state, *args):
        order.append(("fail", index))
        return fail(self, index, state, *args)

    monkeypatch.setattr(Broker, "_complete", traced_complete)
    monkeypatch.setattr(Broker, "_fail", traced_fail)
    return order


def test_done_follows_entry_fsync_replace_and_directory_fsync(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    paths = {job.spec_hash(): str(cache.path(job))
             for job in expand(make_spec()).jobs}
    log = IoLog(monkeypatch)
    run = run_sweep(make_spec(), workers=2, cache=cache, run_id="order")
    assert run.n_executed == len(paths)

    events = log.events
    n_done = 0
    for written_at, records in log.journal_writes():
        for record in records:
            if record["t"] != "done":
                continue
            n_done += 1
            entry = paths[record["h"]]
            (replaced_at, tmp_name), = [
                (position, event[1]) for position, event in enumerate(events)
                if event[0] == "replace" and event[2] == entry
            ]
            assert replaced_at < written_at
            assert ("fsync", tmp_name) in events[:replaced_at]
            assert ("fsync", str(tmp_path)) in events[replaced_at:written_at]
    assert n_done == len(paths)


def test_cold_run_fsyncs_at_most_entries_plus_two_per_group(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    log = IoLog(monkeypatch)
    run = run_sweep(make_spec(), workers=2, cache=cache, run_id="count")
    entries = run.n_executed
    groups = len(log.journal_writes())
    fsyncs = log.fsyncs()
    assert len(fsyncs) <= entries + 2 * groups
    # One fsync per entry, one cache-directory fsync per group of
    # entries, one journal fsync per group (begin and end included).
    assert sum(path.endswith(".tmp") for path in fsyncs) == entries
    assert fsyncs.count(str(tmp_path)) == groups - 2


@pytest.mark.parametrize("workers", [1, 2])
def test_failure_records_follow_earlier_done_records(tmp_path, monkeypatch, workers):
    order = record_broker_order(monkeypatch)
    cache = ResultCache(tmp_path)
    run = run_sweep(make_spec(), workers=workers, cache=cache, run_id="faults",
                    faults="flaky@2:1;poison@5;flaky@6:2", max_retries=3)
    assert run.n_retries == 3 and run.n_quarantined == 1

    lines = journal_lines(cache, "faults")
    assert lines[0]["t"] == "begin" and lines[-1]["t"] == "end"
    kinds = {"done": "done", "retry": "fail", "quarantine": "fail"}
    journaled = [(kinds[line["t"]], line["i"]) for line in lines[1:-1]]
    # The journal holds the broker's completions and failures in the
    # order the broker saw them, so each retry/quarantine record comes
    # after every earlier completion's done record.
    assert journaled == order


def test_interrupt_follows_every_done_record(tmp_path, monkeypatch):
    complete = Broker._complete

    def complete_then_stop(self, index, state, outcome, results):
        complete(self, index, state, outcome, results)
        if len(results) == 3:
            self._stop.set()

    monkeypatch.setattr(Broker, "_complete", complete_then_stop)
    cache = ResultCache(tmp_path)
    with pytest.raises(SweepInterrupted) as caught:
        run_sweep(make_spec(), workers=2, cache=cache, run_id="stop")

    lines = journal_lines(cache, "stop")
    assert lines[-1]["t"] == "interrupt"
    done = [line for line in lines if line["t"] == "done"]
    assert lines[-1]["done"] == len(done) == caught.value.n_done
    state = replay_journal(journal_path(tmp_path / "runs", "stop"), "stop")
    assert state.interrupted and not state.ended
    assert all(cache.load(job) is not None
               for index, job in enumerate(expand(make_spec()).jobs)
               if index in state.done)


@pytest.mark.parametrize("workers", [1, 2])
def test_store_error_fails_the_run_on_the_calling_thread(tmp_path, monkeypatch,
                                                         workers):
    def full_disk(self, job, result, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(ResultCache, "store", full_disk)
    cache = ResultCache(tmp_path)
    with pytest.raises(OSError, match="No space left"):
        run_sweep(make_spec(), workers=workers, cache=cache, run_id="full")
    assert not any(thread.name == "sweep-commit"
                   for thread in threading.enumerate())
    state = replay_journal(journal_path(tmp_path / "runs", "full"), "full")
    assert not state.done and not state.ended


class RecordingJournal:
    """A journal that keeps each group's records in memory."""

    def __init__(self) -> None:
        self.groups: list[list] = []
        self._staged = None

    @contextmanager
    def group(self):
        self._staged = []
        yield
        self.groups.append(self._staged)
        self._staged = None

    def job_done(self, index, job_hash, attempt):
        self._staged.append(("done", index))

    def note(self, index):
        self._staged.append(("note", index))


def test_committer_keeps_every_item_in_order_under_contention():
    journal = RecordingJournal()
    committer = _GroupCommitter(None, journal, FaultInjector(), print)
    job = expand(make_spec()).jobs[0]
    job_hash = job.spec_hash()
    expected = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for index in range(3000):
            if index % 7:
                committer.submit(_Completion(index, job, None, 0, job_hash))
                expected.append(("done", index))
            else:
                committer.submit(lambda index=index: journal.note(index))
                expected.append(("note", index))
        closer = threading.Thread(target=committer.close)
        closer.start()
        closer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not closer.is_alive()
    assert [item for group in journal.groups for item in group] == expected
    assert all(journal.groups)
