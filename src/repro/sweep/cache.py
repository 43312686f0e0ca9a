"""On-disk memoization of completed sweep jobs.

Each executed :class:`~repro.sweep.result.JobResult` is pickled under
``<root>/<key>.pkl``, where ``key`` salts the job's canonical spec hash
(:meth:`~repro.sweep.spec.JobSpec.spec_hash`: axes, scalar options and
the derived per-job seed) with a cache format version and the package
version, so stale layouts never deserialize.  Because the key is per
*job*, a new sweep that overlaps a previous grid — one more trace, one
more predictor — only pays for the new cells.

An entry is the pickle followed by a 4-byte CRC-32 trailer of the
pickle bytes.  ``pickle.load`` stops at the pickle's STOP opcode, so a
plain reader still reads an entry; :meth:`ResultCache.load` checks the
trailer before it unpickles anything.

Stores are committed in groups (:meth:`ResultCache.group`): every
entry of a group is written to its own temp file, the temp files are
fsynced back to back, each is published with ``os.replace``, and the
cache directory is fsynced once, so the names are durable too.  A
store outside a group is a group of one.  A crash mid-group loses at
most the group's unpublished entries; a published entry is always
complete.  An entry that is nonetheless unreadable — torn by a power
cut, a flipped bit, scribbled on by fault injection — fails its CRC (or
its unpickling) and is a miss: it is *quarantined* to a ``.corrupt/``
sibling directory for post-mortem (rather than silently overwritten in
place) and reported with a one-line warning naming the spec hash.  A
crash may cost re-running a job, never a wrong hit.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import warnings
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.common.paths import default_cache_dir
from repro.sweep.spec import JobSpec, stable_digest

if TYPE_CHECKING:
    from repro.sweep.result import JobResult

__all__ = ["ResultCache", "default_cache_dir", "CACHE_VERSION", "CORRUPT_DIR"]

#: Bump on any change that alters simulation *behaviour* or the entry
#: layout.  The package version participates in the key as well, so
#: released behaviour changes invalidate old entries automatically; this
#: counter covers in-between development churn.  Version 2: the CRC-32
#: trailer, and the key salts the spec hash instead of the job dict.
CACHE_VERSION = 2

#: Sibling directory (under the cache root) corrupt entries move to.
CORRUPT_DIR = ".corrupt"

#: Bytes of the CRC-32 trailer after the pickle.
_TRAILER = 4


def _crc(payload: bytes) -> bytes:
    return (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(_TRAILER, "little")


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class ResultCache:
    """Pickle-per-job result store keyed by job spec hash."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        # The entries a group has staged, per thread that opened it.
        self._local = threading.local()

    def key(self, job: JobSpec, spec_hash: str | None = None) -> str:
        """Cache key: the job's spec hash salted with the cache format
        counter and the package version, so simulator behaviour changes
        across releases never serve stale numbers.  Pass ``spec_hash``
        when the caller already has it."""
        from repro import __version__  # local import: repro imports sweep

        return stable_digest({
            "v": CACHE_VERSION, "pkg": __version__,
            "job": spec_hash or job.spec_hash(),
        })

    def path(self, job: JobSpec, spec_hash: str | None = None) -> Path:
        return self.root / f"{self.key(job, spec_hash)}.pkl"

    def load(self, job: JobSpec, *,
             spec_hash: str | None = None) -> JobResult | None:
        """The memoized result, or None on miss/corruption.

        A present-but-unreadable entry (missing or mismatched CRC
        trailer, truncated pickle, wrong type) is quarantined to
        ``<root>/.corrupt/`` with a one-line warning naming the spec
        hash, then reported as a miss — the sweep re-runs the job and
        the next :meth:`store` writes a fresh entry.  Pass ``spec_hash``
        when the caller already has it (as for :meth:`store`).
        """
        # Loaded here, not at import: the result model pulls in the
        # simulation engine, which opening a cache does not need.
        from repro.sweep.result import JobResult

        path = self.path(job, spec_hash)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        payload, trailer = data[:-_TRAILER], data[-_TRAILER:]
        if not payload or _crc(payload) != trailer:
            self._quarantine(path, job, spec_hash)
            return None
        try:
            cached = pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            self._quarantine(path, job, spec_hash)
            return None
        if not isinstance(cached, JobResult):
            self._quarantine(path, job, spec_hash)
            return None
        return cached.cached()

    def _quarantine(self, path: Path, job: JobSpec,
                    spec_hash: str | None) -> None:
        """Move a corrupt entry aside for post-mortem instead of serving
        or silently deleting it."""
        corrupt_dir = self.root / CORRUPT_DIR
        try:
            corrupt_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, corrupt_dir / path.name)
        except OSError:
            return  # cross-process race on the same entry: already moved
        warnings.warn(
            f"quarantined corrupt cache entry for job "
            f"{spec_hash or job.spec_hash()} "
            f"to {corrupt_dir / path.name}; the job will re-run",
            RuntimeWarning,
            stacklevel=3,
        )

    @contextmanager
    def group(self) -> Iterator[None]:
        """Commit every :meth:`store` made inside the block as one group.

        The stores write their temp files; a clean exit fsyncs them back
        to back, publishes each with ``os.replace`` and fsyncs the cache
        directory once.  Once the block has exited every entry of the
        group is durable under its final name.  An exception discards
        the group's unpublished temp files.  A group belongs to the
        thread that opened it; groups do not nest.
        """
        if getattr(self._local, "staged", None) is not None:
            raise RuntimeError("ResultCache.group() does not nest")
        staged: list[tuple[int | None, str, Path]] = []
        self._local.staged = staged
        try:
            yield
            if staged:
                self._publish(staged)
        finally:
            self._local.staged = None
            # Left only when the block or the commit failed.
            for fd, tmp_name, _ in staged:
                if fd is not None:
                    os.close(fd)
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass  # already published

    def _publish(self, staged: list) -> None:
        for position, (fd, tmp_name, path) in enumerate(staged):
            os.fsync(fd)
            staged[position] = (None, tmp_name, path)
            os.close(fd)
        for _, tmp_name, path in staged:
            os.replace(tmp_name, path)
        staged.clear()
        directory = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    def store(self, job: JobSpec, result: JobResult, *,
              spec_hash: str | None = None) -> Path:
        """Persist a completed job; returns the entry's path.

        Inside :meth:`group` this writes the entry's temp file and the
        group's exit makes it durable; outside a group it is a group of
        one.  Either way the temp file is fsynced before ``os.replace``
        publishes it, so an entry is never observed half-written, and
        the directory is fsynced after — crucial for the run journal,
        whose ``done`` records promise the entry's bytes are on disk.
        """
        staged = getattr(self._local, "staged", None)
        if staged is None:
            with self.group():
                return self.store(job, result, spec_hash=spec_hash)
        if not staged:
            self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(job, spec_hash)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        staged.append((fd, tmp_name, path))
        _write_all(fd, payload + _crc(payload))
        return path

    def __contains__(self, job: JobSpec) -> bool:
        """Membership means *loadability*: a truncated, corrupt or
        foreign entry on the entry path is a miss, exactly as
        :meth:`load` would treat it — so "in cache" never claims an
        entry that execution would then have to recompute."""
        return self.load(job) is not None

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
