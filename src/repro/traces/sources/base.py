"""The :class:`TraceSource` abstraction and its registry.

A trace source is a *named, seeded, hashable* recipe for a branch
stream.  Every source can

* stream records lazily (:meth:`TraceSource.records`) so huge traces
  never materialize eagerly,
* materialize a :class:`~repro.traces.types.Trace`
  (:meth:`TraceSource.generate`), and
* chunk the stream (:meth:`TraceSource.iter_chunks`) — chunking wraps
  the *same* record stream, so the concatenation of chunks is
  identical for every chunk size by construction.

Identity is the source *name*: the sweep layer ships only trace names
through job specs and caches, so a registered source flows through
``sweep/spec.py`` job hashing, the sweep result cache and the fast
backend's plane materialization unchanged.  :func:`resolve_trace` is the
picklable lookup :func:`repro.sim.runner.get_trace` falls back to —
sources registered at import time (the zoo) resolve identically inside
spawn workers.

``file:<path>`` names replay an on-disk RTRC trace (see
:mod:`repro.traces.sources.replay`) without prior registration.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import Iterator

from repro.traces.names import CBP1_TRACE_NAMES, CBP2_TRACE_NAMES
from repro.traces.types import BranchRecord, Trace

__all__ = [
    "TraceSource",
    "FILE_PREFIX",
    "register_source",
    "get_source",
    "source_names",
    "is_source_name",
    "resolve_trace",
]

#: Name prefix that resolves to on-disk RTRC replay instead of the registry.
FILE_PREFIX = "file:"


class TraceSource(ABC):
    """A named, deterministic producer of branch-record streams.

    Concrete sources are frozen dataclasses: hashable, picklable and
    fully described by :meth:`spec_dict`, so two sources with equal spec
    dicts produce bit-identical streams in any process.
    """

    @property
    @abstractmethod
    def name(self) -> str:
        """The registry/sweep identity of this source."""

    @abstractmethod
    def spec_dict(self) -> dict:
        """Plain-data parameterization (JSON-serializable, canonical)."""

    @abstractmethod
    def records(self, n_branches: int) -> Iterator[BranchRecord]:
        """Stream exactly ``n_branches`` records, lazily.

        Streams are prefix-stable: ``records(m)`` is the first ``m``
        records of ``records(n)`` for any ``m <= n`` — the property that
        lets cached materializations of different lengths coexist.
        """

    # -- derived API ---------------------------------------------------

    def generate(self, n_branches: int) -> Trace:
        """Materialize ``n_branches`` records as a :class:`Trace`."""
        if n_branches < 0:
            raise ValueError(f"n_branches must be non-negative, got {n_branches}")
        return self._materialize(n_branches)

    def _materialize(self, n_branches: int) -> Trace:
        """The :meth:`generate` body: collect :meth:`records`.  Sources
        that can build the columns directly override this."""
        return Trace.from_records(self.name, self.records(n_branches))

    def iter_chunks(self, n_branches: int, chunk_size: int) -> Iterator[Trace]:
        """Stream ``n_branches`` records as traces of ``chunk_size``.

        Chunks partition the single stream of :meth:`records`, so their
        concatenation is independent of ``chunk_size``.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        stream = self.records(n_branches)
        while True:
            chunk = list(islice(stream, chunk_size))
            if not chunk:
                return
            yield Trace.from_records(self.name, chunk)

    def source_id(self) -> str:
        """Short content digest of the spec dict (provenance labels)."""
        payload = json.dumps(self.spec_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, TraceSource] = {}

_builtins_loaded = False


def _load_builtins() -> None:
    """Register the repository's own sources (the scenario zoo) ahead of
    any other, exactly once: on the first registry lookup or
    registration, never for ``file:`` names.

    The flag is set first: the zoo registers through
    :func:`register_source`, which calls back here.
    """
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        from repro.traces.sources import zoo  # noqa: F401 — registers on import


def register_source(source: TraceSource, *, replace: bool = False) -> TraceSource:
    """Register a source under its name; returns the source.

    Names must be non-empty, contain no whitespace, and must not shadow
    the built-in CBP suite names or the ``file:`` replay prefix.
    """
    name = source.name
    if not name or name != name.strip() or any(c.isspace() for c in name):
        raise ValueError(f"invalid source name {name!r}")
    if name.startswith(FILE_PREFIX):
        raise ValueError(
            f"source name {name!r} shadows the {FILE_PREFIX!r} replay prefix"
        )
    _load_builtins()
    if name in CBP1_TRACE_NAMES or name in CBP2_TRACE_NAMES:
        raise ValueError(f"source name {name!r} shadows a built-in suite trace")
    if name in _REGISTRY:
        if not replace:
            raise ValueError(f"source {name!r} already registered")
        # The replaced source may have memoized materializations under
        # this name; drop them so the new source is actually consulted.
        _generate_cached.cache_clear()
    _REGISTRY[name] = source
    return source


def get_source(name: str) -> TraceSource:
    """Resolve a source name (registered, or a ``file:<path>`` replay)."""
    if name.startswith(FILE_PREFIX):
        from repro.traces.sources.replay import FileReplaySource

        return FileReplaySource(path=name[len(FILE_PREFIX):])
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown trace source {name!r}") from None


def source_names() -> tuple[str, ...]:
    """Registered source names, in registration order."""
    _load_builtins()
    return tuple(_REGISTRY)


def is_source_name(name: str) -> bool:
    """Does ``name`` resolve to a source (registered or file replay)?"""
    if name.startswith(FILE_PREFIX):
        return True
    _load_builtins()
    return name in _REGISTRY


@lru_cache(maxsize=64)
def _generate_cached(name: str, n_branches: int, file_stamp=None) -> Trace:
    # ``file_stamp`` only widens the memoization key (see resolve_trace);
    # generation itself depends purely on the name.
    return get_source(name).generate(n_branches)


def _file_stamp(name: str) -> tuple[int, int] | None:
    """Freshness key of a ``file:<path>`` source: ``(mtime_ns, size)``.

    ``None`` for a missing file — the stat is repeated on every resolve,
    so a file created after a failed lookup is picked up immediately.
    """
    try:
        stat = Path(name[len(FILE_PREFIX):]).stat()
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size)


def resolve_trace(name: str, n_branches: int) -> Trace:
    """Materialize (and memoize) a source by name — the sweep-worker path.

    ``file:<path>`` replays are additionally keyed by the file's
    ``(mtime_ns, size)``, so rewriting the on-disk trace invalidates the
    memoized materialization instead of serving stale records; replacing
    a registered source (``register_source(..., replace=True)``) clears
    the memo entirely for the same reason.
    """
    if name.startswith(FILE_PREFIX):
        return _generate_cached(name, n_branches, _file_stamp(name))
    return _generate_cached(name, n_branches)
