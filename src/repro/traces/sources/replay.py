"""On-disk RTRC replay as a :class:`TraceSource`.

``file:<path>`` names resolve here: the file (plain or ``.gz``) is
re-opened and streamed on every materialization through
:class:`repro.traces.io.TraceReader`, so multi-million-branch traces
replay in bounded memory.  The source name embeds the path, which makes
replay jobs flow through sweep spec hashing like any other trace name —
two sweeps over the same file share cache entries, and renaming/moving
the file changes the identity (on purpose: the name is the provenance).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.traces.io import TraceReader
from repro.traces.sources.base import (
    FILE_PREFIX,
    MissingTraceFileError,
    TraceSource,
)
from repro.traces.types import BranchRecord, Trace

__all__ = ["FileReplaySource"]


@dataclass(frozen=True)
class FileReplaySource(TraceSource):
    """Replay a trace file written by :func:`repro.traces.io.write_trace`.

    ``records(n)`` yields at most ``n`` records — a file shorter than
    the requested length replays in full (the simulator simply sees a
    shorter trace), which keeps prefix-stability trivially true.
    """

    path: str

    @property
    def name(self) -> str:
        return f"{FILE_PREFIX}{self.path}"

    def spec_dict(self) -> dict:
        return {"kind": "file-replay", "path": str(self.path)}

    @property
    def file_path(self) -> Path:
        return Path(self.path)

    def _reader(self) -> TraceReader:
        try:
            return TraceReader(self.file_path)
        except FileNotFoundError:
            raise MissingTraceFileError(self.path) from None

    def records(self, n_branches: int) -> Iterator[BranchRecord]:
        if n_branches < 0:
            raise ValueError(f"n_branches must be non-negative, got {n_branches}")
        with self._reader() as reader:
            yield from reader.iter_records(limit=n_branches)

    def _materialize(self, n_branches: int) -> Trace:
        # Columns straight from the reader's decode, no record objects.
        with self._reader() as reader:
            return Trace(self.name, *reader.read_columns(limit=n_branches))
