"""Tests for the crash-safe run journal: round trip, torn tails, CRCs."""

import os

import pytest

from repro.sweep.journal import (
    JournalError,
    RunJournal,
    journal_path,
    replay_journal,
)

SPEC_DICT = {"name": "j", "predictors": [], "estimators": [],
             "traces": ["INT-1"], "n_branches": 100}
HASHES = ["aaaa", "bbbb", "cccc"]


def write_run(path, run_id="run-1", done=(0, 2), fsync=False):
    journal = RunJournal(path, run_id, fresh=True, fsync=fsync)
    journal.begin(SPEC_DICT, "deadbeef", HASHES)
    for index in done:
        journal.job_done(index, HASHES[index], attempt=0)
    journal.close()
    return journal


class TestJournalPath:
    def test_layout(self, tmp_path):
        assert journal_path(tmp_path, "abc") == tmp_path / "abc.jsonl"

    @pytest.mark.parametrize("bad", ["", "a/b", "a\\b", ".hidden", "a\nb"])
    def test_rejects_unsafe_run_ids(self, tmp_path, bad):
        with pytest.raises(ValueError):
            journal_path(tmp_path, bad)


class TestRoundTrip:
    def test_replay_reconstructs_progress(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_run(path)
        state = replay_journal(path, "run-1")
        assert state.spec_hash == "deadbeef"
        assert state.spec_dict == SPEC_DICT
        assert state.job_hashes == tuple(HASHES)
        assert state.done == {0: "aaaa", 2: "cccc"}
        assert state.pending_indices == (1,)
        assert not state.ended and not state.interrupted
        assert not state.torn_tail

    def test_retry_quarantine_interrupt_end(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with RunJournal(path, "run-1", fresh=True, fsync=False) as journal:
            journal.begin(SPEC_DICT, "deadbeef", HASHES)
            journal.job_retry(1, 0, "crash", "worker died")
            journal.job_quarantined(1, "bbbb", "deterministic", "boom", 1)
            journal.interrupt(0, 3)
        state = replay_journal(path, "run-1")
        assert state.interrupted
        assert 1 in state.quarantined
        assert state.quarantined[1]["kind"] == "deterministic"
        assert len(state.retries) == 1
        # Quarantined jobs stay pending: resume gives them a fresh chance.
        assert state.pending_indices == (0, 1, 2)

        with RunJournal(path, "run-1", fsync=False) as journal:
            journal.resume(0, 3)
            journal.job_done(1, "bbbb", attempt=0)
            journal.end(1, 0)
        state = replay_journal(path, "run-1")
        assert not state.interrupted and state.ended
        # A later done record clears the quarantine.
        assert state.quarantined == {}
        assert state.done == {1: "bbbb"}

    def test_run_id_mismatch_raises(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_run(path, run_id="run-1")
        with pytest.raises(JournalError, match="belongs to run"):
            replay_journal(path, "other-run")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            replay_journal(tmp_path / "absent.jsonl", "run-1")

    def test_no_begin_record_raises(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with RunJournal(path, "run-1", fresh=True, fsync=False) as journal:
            journal.job_done(0, "aaaa", attempt=0)
        with pytest.raises(JournalError, match="no begin record"):
            replay_journal(path, "run-1")

    def test_fresh_truncates_previous_run(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_run(path, done=(0, 1, 2))
        write_run(path, done=())
        state = replay_journal(path, "run-1")
        assert state.done == {}


class TestTornTail:
    def test_incomplete_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_run(path, done=(0, 2))
        raw = path.read_bytes()
        # Crash mid-append: final record half-written, no newline.
        path.write_bytes(raw + b'{"t": "done", "i": 1,')
        state = replay_journal(path, "run-1")
        assert state.torn_tail
        assert state.done == {0: "aaaa", 2: "cccc"}

    def test_crc_failing_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_run(path, done=(0,))
        raw = path.read_bytes()
        # The write got its newline out but the payload is damaged: the
        # per-record CRC catches it, and as the tail it is droppable.
        lines = raw.splitlines(keepends=True)
        torn = lines[-1].replace(b"aaaa", b"aaab")
        assert torn != lines[-1]
        path.write_bytes(b"".join(lines[:-1]) + torn)
        state = replay_journal(path, "run-1")
        assert state.torn_tail
        assert state.done == {}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_run(path, done=(0, 2))
        lines = path.read_bytes().splitlines(keepends=True)
        # Damage the middle record: not explainable by a crash.
        damaged = lines[1].replace(b"aaaa", b"aaab")
        assert damaged != lines[1]
        lines[1] = damaged
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="corrupt at line 2"):
            replay_journal(path, "run-1")

    def test_append_after_torn_tail_replays_cleanly(self, tmp_path):
        # The writer opens O_APPEND: new records land after the torn
        # fragment.  That fragment has no newline, so it and the first
        # record after it merge into one un-decodable line — which is
        # mid-file corruption.  The broker therefore always *replays
        # before reopening*; this test pins the failure shape.
        path = tmp_path / "r.jsonl"
        write_run(path, done=(0,))
        path.write_bytes(path.read_bytes() + b'{"t": "done"')
        assert replay_journal(path, "run-1").torn_tail


class TestGroup:
    def test_group_is_one_write_in_append_order(self, tmp_path, monkeypatch):
        path = tmp_path / "r.jsonl"
        journal = RunJournal(path, "run-1", fresh=True, fsync=False)
        journal.begin(SPEC_DICT, "deadbeef", HASHES)
        writes = []
        real_write = os.write

        def write(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", write)
        with journal.group():
            journal.job_done(2, HASHES[2], attempt=0)
            journal.job_retry(1, 0, "transient", "flaky")
            journal.job_done(0, HASHES[0], attempt=0)
            assert writes == []
        journal.close()
        assert len(writes) == 1 and writes[0].count(b"\n") == 3
        state = replay_journal(path, "run-1")
        assert list(state.done) == [2, 0] and len(state.retries) == 1

    def test_an_exception_writes_nothing(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with RunJournal(path, "run-1", fresh=True, fsync=False) as journal:
            journal.begin(SPEC_DICT, "deadbeef", HASHES)
            with pytest.raises(RuntimeError, match="boom"):
                with journal.group():
                    journal.job_done(0, HASHES[0], attempt=0)
                    raise RuntimeError("boom")
        assert replay_journal(path, "run-1").done == {}
