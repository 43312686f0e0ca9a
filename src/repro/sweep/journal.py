"""Crash-safe append-only run journals for resumable sweeps.

One sweep run owns one journal file (``<journal_dir>/<run_id>.jsonl``).
Every record is a single canonical-JSON line carrying its own CRC-32,
written with ``O_APPEND`` + ``fsync``.  Records appended inside
:meth:`RunJournal.group` go out together, in one ``write`` and one
``fsync`` when the group exits — the sweep broker commits each group of
completed jobs that way, after the group's cache entries are durable.
A crash — worker, broker or whole-box — can lose at most the final,
partially written group, whose jobs then simply re-run.  Replay
(:func:`replay_journal`) tolerates exactly that torn tail: an incomplete
or CRC-failing *final* line is dropped with the state reconstructed from
everything before it, while corruption anywhere earlier raises
:class:`JournalError` (the journal is append-only; a damaged middle
means something other than a crash happened to the file).

The journal records *facts about progress*, not results: completed jobs
are named by index + spec hash, and their payloads live in the
:class:`~repro.sweep.cache.ResultCache` keyed by the same hash.  Resume
is therefore the composition "journal says done" + "cache serves the
bytes" — and stays bit-identical because the cache entry *is* the
original result.

Record types (the ``t`` field):

* ``begin`` — run id, the full :class:`ExperimentSpec` dict, its hash,
  and the per-index job hashes of the expanded grid.
* ``resume`` — appended each time an existing journal is reopened.
* ``done`` / ``retry`` / ``quarantine`` — per-job progress.
* ``interrupt`` — the clean SIGINT/SIGTERM checkpoint.
* ``end`` — the run completed (possibly with quarantined jobs).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.sweep.spec import canonical_json

__all__ = [
    "JournalError",
    "JournalState",
    "RunJournal",
    "journal_path",
    "replay_journal",
]


class JournalError(RuntimeError):
    """The journal is unreadable beyond what a torn tail explains."""


def journal_path(journal_dir: str | os.PathLike, run_id: str) -> Path:
    """Where a run's journal lives: ``<journal_dir>/<run_id>.jsonl``."""
    _validate_run_id(run_id)
    return Path(journal_dir) / f"{run_id}.jsonl"


def _validate_run_id(run_id: str) -> None:
    if not run_id or any(ch in run_id for ch in "/\\\0\n") or run_id.startswith("."):
        raise ValueError(f"invalid run id {run_id!r}")


def _encode_record(record: dict) -> bytes:
    body = canonical_json(record)
    crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
    return canonical_json({**record, "crc": crc}).encode() + b"\n"


def _decode_record(line: bytes) -> dict:
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("journal record is not an object")
    crc = record.pop("crc", None)
    body = canonical_json(record)
    if crc != zlib.crc32(body.encode()) & 0xFFFFFFFF:
        raise ValueError("journal record CRC mismatch")
    return record


class RunJournal:
    """Writer half: append records for one run, fsync'd by default.

    ``fsync=False`` exists for tests and throwaway runs only — with it a
    crash may lose acknowledged records, which breaks the resume
    guarantee.
    """

    def __init__(self, path: str | os.PathLike, run_id: str,
                 fresh: bool = False, fsync: bool = True) -> None:
        _validate_run_id(run_id)
        self.path = Path(path)
        self.run_id = run_id
        self._fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        flags = os.O_APPEND | os.O_CREAT | os.O_WRONLY
        if fresh and self.path.exists():
            self.path.unlink()
        self._fd = os.open(self.path, flags, 0o644)
        # The records a group has staged, per thread that opened it.
        self._local = threading.local()

    # -- raw append ----------------------------------------------------

    def append(self, record: dict) -> None:
        """Write one record durably (single ``write`` + ``fsync``), or
        stage it for the enclosing :meth:`group`."""
        staged = getattr(self._local, "staged", None)
        if staged is not None:
            staged.append(_encode_record(record))
            return
        self._write(_encode_record(record))

    @contextmanager
    def group(self) -> Iterator[None]:
        """Append every record of the block in one ``write`` + ``fsync``.

        Records stay in append order.  Nothing is written if the block
        raises.  A group belongs to the thread that opened it; groups
        do not nest.
        """
        if getattr(self._local, "staged", None) is not None:
            raise RuntimeError("RunJournal.group() does not nest")
        staged: list[bytes] = []
        self._local.staged = staged
        try:
            yield
        finally:
            self._local.staged = None
        if staged:
            self._write(b"".join(staged))

    def _write(self, data: bytes) -> None:
        if self._fd is None:
            raise JournalError(f"journal {self.path} is closed")
        view = memoryview(data)
        while view:
            view = view[os.write(self._fd, view):]
        if self._fsync:
            os.fsync(self._fd)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- typed records -------------------------------------------------

    def begin(self, spec_dict: dict, spec_hash: str,
              job_hashes: list[str]) -> None:
        self.append({
            "t": "begin",
            "run": self.run_id,
            "spec": spec_dict,
            "spec_hash": spec_hash,
            "n_jobs": len(job_hashes),
            "job_hashes": list(job_hashes),
        })

    def resume(self, n_done: int, n_pending: int) -> None:
        self.append({"t": "resume", "done": n_done, "pending": n_pending})

    def job_done(self, index: int, job_hash: str, attempt: int) -> None:
        self.append({"t": "done", "i": index, "h": job_hash, "attempt": attempt})

    def job_retry(self, index: int, attempt: int, kind: str, error: str) -> None:
        self.append({
            "t": "retry", "i": index, "attempt": attempt,
            "kind": kind, "error": error,
        })

    def job_quarantined(self, index: int, job_hash: str, kind: str,
                        error: str, attempts: int) -> None:
        self.append({
            "t": "quarantine", "i": index, "h": job_hash,
            "kind": kind, "error": error, "attempts": attempts,
        })

    def interrupt(self, n_done: int, n_pending: int) -> None:
        self.append({"t": "interrupt", "done": n_done, "pending": n_pending})

    def end(self, n_done: int, n_quarantined: int) -> None:
        self.append({"t": "end", "done": n_done, "quarantined": n_quarantined})


@dataclass
class JournalState:
    """Everything :func:`replay_journal` can reconstruct about a run."""

    run_id: str
    spec_dict: dict | None = None
    spec_hash: str | None = None
    n_jobs: int = 0
    job_hashes: tuple[str, ...] = ()
    done: dict[int, str] = field(default_factory=dict)
    quarantined: dict[int, dict] = field(default_factory=dict)
    retries: list[dict] = field(default_factory=list)
    interrupted: bool = False
    ended: bool = False
    torn_tail: bool = False

    @property
    def pending_indices(self) -> tuple[int, ...]:
        """Grid indices with no ``done`` record, in grid order.

        Quarantined jobs count as pending: a resume gives them a fresh
        chance (their failure may have been environmental); genuinely
        poisoned jobs simply quarantine again.
        """
        return tuple(
            index for index in range(self.n_jobs) if index not in self.done
        )


def replay_journal(path: str | os.PathLike, run_id: str) -> JournalState:
    """Reconstruct a :class:`JournalState`, tolerating a torn tail.

    Raises:
        JournalError: missing file, no ``begin`` record, or corruption
            anywhere before the final line.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise JournalError(f"cannot read journal {path}: {error}") from None

    state = JournalState(run_id=run_id)
    lines = raw.split(b"\n")
    # A well-formed journal ends with b"" after the final newline; any
    # other final element is a torn tail (crash mid-append).
    if lines and lines[-1] != b"":
        state.torn_tail = True
    body, tail = lines[:-1], lines[-1]
    records = []
    for lineno, line in enumerate(body):
        try:
            records.append(_decode_record(line))
        except ValueError as error:
            if lineno == len(body) - 1 and not tail:
                # A torn write that still got its newline out: the CRC
                # catches it, and as the final line it is droppable.
                state.torn_tail = True
                break
            raise JournalError(
                f"journal {path} corrupt at line {lineno + 1}: {error}"
            ) from None

    for record in records:
        kind = record.get("t")
        if kind == "begin":
            if record.get("run") != run_id:
                raise JournalError(
                    f"journal {path} belongs to run {record.get('run')!r}, "
                    f"not {run_id!r}"
                )
            state.spec_dict = record.get("spec")
            state.spec_hash = record.get("spec_hash")
            state.n_jobs = record.get("n_jobs", 0)
            state.job_hashes = tuple(record.get("job_hashes", ()))
        elif kind == "done":
            state.done[record["i"]] = record["h"]
            state.quarantined.pop(record["i"], None)
        elif kind == "retry":
            state.retries.append(record)
        elif kind == "quarantine":
            state.quarantined[record["i"]] = record
        elif kind == "interrupt":
            state.interrupted = True
        elif kind == "end":
            state.ended = True
        elif kind == "resume":
            state.interrupted = False
        # Unknown record types are skipped: forward compatibility.

    if state.spec_dict is None:
        raise JournalError(f"journal {path} has no begin record")
    return state
