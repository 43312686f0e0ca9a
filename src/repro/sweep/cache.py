"""On-disk memoization of completed sweep jobs.

Each executed :class:`~repro.sweep.result.JobResult` is pickled under
``<root>/<spec_hash>.pkl`` where ``spec_hash`` is the canonical digest of
the :class:`~repro.sweep.spec.JobSpec` (axes, scalar options and the
derived per-job seed all participate, plus a cache format version so
stale layouts never deserialize).  Because the key is per *job*, a new
sweep that overlaps a previous grid — one more trace, one more predictor
— only pays for the new cells.

Writes are atomic and durable (temp file + fsync + ``os.replace``) so a
crashed or killed worker can never leave a truncated entry behind.  An
entry that is nonetheless unreadable — torn by a power cut, scribbled on
by fault injection — is treated as a miss, *quarantined* to a
``.corrupt/`` sibling directory for post-mortem (rather than silently
overwritten in place), and reported with a one-line warning naming the
spec hash.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from repro.sweep.spec import JobSpec, stable_digest

if TYPE_CHECKING:
    from repro.sweep.result import JobResult

__all__ = ["ResultCache", "default_cache_dir", "CACHE_VERSION", "CORRUPT_DIR"]

#: Bump on any change that alters simulation *behaviour* or the pickled
#: result layout.  The package version participates in the key as well,
#: so released behaviour changes invalidate old entries automatically;
#: this counter covers in-between development churn.
CACHE_VERSION = 1

#: Environment override for the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Sibling directory (under the cache root) corrupt entries move to.
CORRUPT_DIR = ".corrupt"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``.repro-cache/sweeps`` under the cwd."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(".repro-cache") / "sweeps"


class ResultCache:
    """Pickle-per-job result store keyed by job spec hash."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def key(self, job: JobSpec) -> str:
        """Cache key: job digest salted with the cache format counter and
        the package version, so simulator behaviour changes across
        releases never serve stale numbers."""
        from repro import __version__  # local import: repro imports sweep

        return stable_digest(
            {"v": CACHE_VERSION, "pkg": __version__, "job": job.as_dict()}
        )

    def path(self, job: JobSpec) -> Path:
        return self.root / f"{self.key(job)}.pkl"

    def load(self, job: JobSpec) -> JobResult | None:
        """The memoized result, or None on miss/corruption.

        A present-but-unreadable entry (truncated pickle, wrong type) is
        quarantined to ``<root>/.corrupt/`` with a one-line warning
        naming the spec hash, then reported as a miss — the sweep re-runs
        the job and the next :meth:`store` writes a fresh entry.
        """
        # Loaded here, not at import: the CLI's parser reads
        # default_cache_dir without the result model behind it.
        from repro.sweep.result import JobResult

        path = self.path(job)
        if not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                cached = pickle.load(fh)
        except OSError:
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            self._quarantine(path, job)
            return None
        if not isinstance(cached, JobResult):
            self._quarantine(path, job)
            return None
        return cached.cached()

    def _quarantine(self, path: Path, job: JobSpec) -> None:
        """Move a corrupt entry aside for post-mortem instead of serving
        or silently deleting it."""
        corrupt_dir = self.root / CORRUPT_DIR
        try:
            corrupt_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, corrupt_dir / path.name)
        except OSError:
            return  # cross-process race on the same entry: already moved
        warnings.warn(
            f"quarantined corrupt cache entry for job {job.spec_hash()} "
            f"to {corrupt_dir / path.name}; the job will re-run",
            RuntimeWarning,
            stacklevel=3,
        )

    def store(self, job: JobSpec, result: JobResult) -> None:
        """Atomically and durably persist a completed job.

        The temp file is fsynced before ``os.replace`` publishes it, so
        an entry can never be observed half-written — crucial for the
        run journal, whose ``done`` records promise the entry's bytes
        are on disk.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(job)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __contains__(self, job: JobSpec) -> bool:
        """Membership means *loadability*: a truncated, corrupt or
        foreign pickle on the entry path is a miss, exactly as
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
