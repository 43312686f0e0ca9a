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
one trace lookup (``repro.sim.runner.get_trace`` and
``repro.api.resolve_trace`` are this function) and its memo is the one
trace memo: sources registered at import time resolve identically
inside spawn workers.

The registry lists the 40 CBP-1/CBP-2 names first (a
:class:`SuiteTraceSource` each, registered when this module loads and
synthesized on first materialization), then the scenario zoo (loaded on
the first lookup of any other name), then whatever else registers.
``file:<path>`` names replay an on-disk RTRC trace (see
:mod:`repro.traces.sources.replay`) without prior registration.
"""

from __future__ import annotations

import hashlib
import json
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import Iterator

from repro.traces.names import CBP1_TRACE_NAMES, CBP2_TRACE_NAMES
from repro.traces.types import BranchRecord, Trace

__all__ = [
    "TraceSource",
    "SuiteTraceSource",
    "FILE_PREFIX",
    "MissingTraceFileError",
    "require_trace_file",
    "register_source",
    "get_source",
    "source_names",
    "is_source_name",
    "resolve_trace",
    "default_trace_length",
]

#: Name prefix that resolves to on-disk RTRC replay instead of the registry.
FILE_PREFIX = "file:"


class MissingTraceFileError(LookupError):
    """A ``file:<path>`` trace name whose file does not exist.

    Deliberately not an ``OSError``: the sweep broker retries those as
    transient, while a missing file fails the same way every time.
    """

    def __init__(self, path: str) -> None:
        super().__init__(f"trace file {path!r} not found")
        self.path = path


def require_trace_file(name: str) -> None:
    """Refuse a ``file:<path>`` name with no file behind it; any other
    name passes."""
    if name.startswith(FILE_PREFIX):
        path = name[len(FILE_PREFIX):]
        if not os.path.exists(path):
            raise MissingTraceFileError(path)


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


@dataclass(frozen=True)
class SuiteTraceSource(TraceSource):
    """One CBP-1 or CBP-2 trace: the name's
    :func:`~repro.traces.suites.trace_spec`, synthesized in one shot by
    :func:`~repro.traces.workload.synthesize` (the C twin when the C
    build resolves).  Registering one loads no synthesis module."""

    label: str
    suite: str

    @property
    def name(self) -> str:
        return self.label

    def spec_dict(self) -> dict:
        return {"kind": self.suite.lower(), "label": self.label}

    def records(self, n_branches: int) -> Iterator[BranchRecord]:
        return self.generate(n_branches).records()

    def _materialize(self, n_branches: int) -> Trace:
        from repro.traces.suites import trace_spec
        from repro.traces.workload import synthesize

        return synthesize(trace_spec(self.label), n_branches)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, TraceSource] = {
    name: SuiteTraceSource(label=name, suite=suite)
    for suite, names in (("CBP1", CBP1_TRACE_NAMES), ("CBP2", CBP2_TRACE_NAMES))
    for name in names
}

_builtins_loaded = False


def _load_builtins() -> None:
    """Register the scenario zoo after the suite names and ahead of any
    other source, exactly once: on the first listing, registration or
    lookup of a name the registry does not hold yet — never for a CBP or
    ``file:`` name.

    The flag is set first: the zoo registers through
    :func:`register_source`, which calls back here.
    """
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        from repro.traces.sources import zoo  # noqa: F401 — registers on import


def _registered(name: str) -> TraceSource | None:
    """The source registered under ``name``; a miss loads the zoo first."""
    if name not in _REGISTRY:
        _load_builtins()
    return _REGISTRY.get(name)


def register_source(source: TraceSource, *, replace: bool = False) -> TraceSource:
    """Register a source under its name; returns the source.

    Names must be non-empty, contain no whitespace, and must not shadow
    the built-in CBP suite names (not even with ``replace=True``) or the
    ``file:`` replay prefix.
    """
    name = source.name
    if not name or name != name.strip() or any(c.isspace() for c in name):
        raise ValueError(f"invalid source name {name!r}")
    if name.startswith(FILE_PREFIX):
        raise ValueError(
            f"source name {name!r} shadows the {FILE_PREFIX!r} replay prefix"
        )
    existing = _registered(name)
    if isinstance(existing, SuiteTraceSource):
        raise ValueError(f"source name {name!r} shadows a built-in suite trace")
    if existing is not None:
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
    source = _registered(name)
    if source is None:
        raise KeyError(f"unknown trace name {name!r}")
    return source


def source_names() -> tuple[str, ...]:
    """Registered source names, in registration order."""
    _load_builtins()
    return tuple(_REGISTRY)


def is_source_name(name: str) -> bool:
    """Does ``name`` resolve to a source (registered or file replay)?"""
    return name.startswith(FILE_PREFIX) or _registered(name) is not None


_DEFAULT_TRACE_LENGTH = 50_000


def default_trace_length() -> int:
    """Default dynamic branch count per trace.

    The paper's traces are ~30 M instructions; we default to 50 000
    branches (a few hundred thousand instructions) so the pure-Python
    simulator finishes a full suite sweep in minutes.  The ``REPRO_SCALE``
    environment variable multiplies the default (e.g. ``REPRO_SCALE=10``
    for 500 000-branch traces).
    """
    scale = float(os.environ.get("REPRO_SCALE", "1"))
    if scale <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {scale}")
    return int(_DEFAULT_TRACE_LENGTH * scale)


@lru_cache(maxsize=128)
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


def resolve_trace(name: str, n_branches: int | None = None) -> Trace:
    """Materialize (and memoize) any trace name: a CBP suite name, a
    registered source (the scenario zoo) or a ``file:<path>`` replay.

    ``None`` means :func:`default_trace_length`; any other length,
    0 included, is taken as given.  This is the lookup the sweep workers
    use: a job ships only the *name*, and each worker process
    regenerates (and memoizes) the deterministic trace locally instead
    of pickling branch columns across the pipe.  An unknown name raises
    ``KeyError``.

    ``file:<path>`` replays are additionally keyed by the file's
    ``(mtime_ns, size)``, so rewriting the on-disk trace invalidates the
    memoized materialization instead of serving stale records; replacing
    a registered source (``register_source(..., replace=True)``) clears
    the memo entirely for the same reason.
    """
    if n_branches is None:
        n_branches = default_trace_length()
    if name.startswith(FILE_PREFIX):
        return _generate_cached(name, n_branches, _file_stamp(name))
    return _generate_cached(name, n_branches)
