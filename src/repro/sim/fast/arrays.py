"""The per-trace object of the fast backend: packed columns plus the
streams derived from them.

:class:`TraceArrays` wraps a :class:`~repro.traces.types.Trace`'s
packed columns — the ``array('Q')`` pcs and the 0/1 takens bytes —
and every kernel reads them from here.  The C leg hands the columns
straight to the compiled kernels and never imports NumPy; the NumPy
leg asks for :attr:`TraceArrays.pcs` / :attr:`~TraceArrays.takens` /
:attr:`~TraceArrays.taken_bool`, read-only ndarray views that
materialize on first use.  Materialization is deterministic given the
trace (``tests/traces/test_determinism.py`` guards the pipeline end to
end: same :class:`~repro.traces.workload.WorkloadSpec` + seed →
identical arrays across processes).

The NumPy history-window and fold helpers live in
:mod:`repro.sim.fast.windows`, so importing this module never loads
NumPy.
"""

from __future__ import annotations

from array import array
from typing import Callable

from repro.sim.backends import FastBackendUnsupported

__all__ = ["MAX_WINDOW_BITS", "DEFAULT_CHUNK_SIZE", "TraceArrays"]

#: Longest history whose packed per-branch window fits an int64 lane —
#: the one structural bound of every window-based fast kernel (gshare,
#: JRS, perceptron, local, TAGE path registers).  The reference engine
#: uses Python bigints and has no such bound.
MAX_WINDOW_BITS = 62

#: Branches per NumPy counter-scan chunk (:mod:`repro.sim.fast.scan`);
#: bounds the scan working set and the O(n log n) sweep depth while
#: keeping per-chunk NumPy calls amortized.
DEFAULT_CHUNK_SIZE = 1 << 15


class TraceArrays:
    """Packed columns of one trace — ``pc_column`` (u64 pcs) and
    ``taken_column`` (one 0/1 byte per branch) — plus the per-branch
    streams derived from them.  The kernels only read the columns; they
    are private copies, mutable only so that a chunk of them can be
    handed to a C kernel as a zero-copy memoryview slice.

    Every cell of a sweep that reads the same trace-derived stream — one
    predictor configuration's prediction stream, the JRS/eJRS base index
    of one ``(history_length, log_entries)``, a sum-based predictor's
    (predictions, self-confidence) pair — computes it once through
    :meth:`derived` and shares it.  The streams live exactly as long as
    this instance: :meth:`from_trace` keeps one trace materialized per
    process, so moving to the next trace drops the previous trace's
    streams with its columns.

    The columns may also be NumPy arrays (a window of another
    instance's views, as the NumPy plane builder makes); the views then
    wrap them without a copy.
    """

    __slots__ = ("name", "pc_column", "taken_column", "_views", "_derived")

    def __init__(self, name: str, pcs, takens) -> None:
        if len(pcs) != len(takens):
            raise ValueError(
                f"column length mismatch: pcs={len(pcs)} takens={len(takens)}"
            )
        self.name = name
        self.pc_column = pcs
        self.taken_column = takens
        self._views: dict = {}
        self._derived: dict = {}

    @classmethod
    def from_trace(cls, trace) -> "TraceArrays":
        """The packed columns of a :class:`~repro.traces.types.Trace`,
        copied (a buffer copy each), so later trace mutation cannot
        alias into a running simulation.

        The last materialization is memoized on the identity of the
        trace object, so the jobs of one trace (which the sweep hands
        out trace by trace through the shared ``get_trace`` memo)
        copy its columns once.  That relies on the trace contract: a
        trace is never mutated after construction — a trace changed
        after its first materialization keeps serving the earlier
        columns.
        """
        global _LAST_MATERIALIZED
        memo = _LAST_MATERIALIZED
        if memo is not None and memo[0] is trace:
            return memo[1]
        arrays = cls(trace.name, array("Q", bytes(memoryview(trace.pcs))),
                     bytearray(memoryview(trace.takens)))
        _LAST_MATERIALIZED = (trace, arrays)
        return arrays

    def __len__(self) -> int:
        return len(self.pc_column)

    @property
    def pcs(self):
        """The pcs as a read-only int64 ndarray (NumPy leg).

        Raises:
            FastBackendUnsupported: when a pc is 2**63 or more, which no
                int64 lane holds (the dispatchers then fall back to the
                reference engine with a warning).
        """
        view = self._views.get("pcs")
        if view is None:
            import numpy as np

            view = np.frombuffer(self.pc_column, dtype=np.int64)
            wide = np.flatnonzero(view < 0)
            if wide.size:
                raise FastBackendUnsupported(
                    f"pc {int(view[wide[0]]) + (1 << 64):#x} does not fit "
                    "the NumPy leg's int64 lanes"
                )
            view.setflags(write=False)
            self._views["pcs"] = view
        return view

    @property
    def takens(self):
        """The outcomes as a read-only uint8 ndarray (NumPy leg)."""
        view = self._views.get("takens")
        if view is None:
            import numpy as np

            view = np.frombuffer(self.taken_column, dtype=np.uint8)
            view.setflags(write=False)
            self._views["takens"] = view
        return view

    @property
    def taken_bool(self):
        """Outcomes as a boolean ndarray (NumPy leg)."""
        return self.takens != 0

    def derived(self, key: tuple, build: Callable[[], object]):
        """The stream cached under ``key``, built by ``build()`` on first use.

        ``key`` must name everything the stream depends on besides this
        trace (a kernel's configuration, a history geometry).  The built
        value — a stream or a tuple of streams — is stored read-only, so
        one cell cannot corrupt the stream the next cell reads: an
        ndarray is flagged read-only and a ``bytearray`` becomes
        ``bytes``.
        """
        value = self._derived.get(key)
        if value is None:
            value = build()
            value = (tuple(map(_frozen, value)) if isinstance(value, tuple)
                     else _frozen(value))
            self._derived[key] = value
        return value

    def has_derived(self, key: tuple) -> bool:
        """Whether :meth:`derived` already holds a stream under ``key``."""
        return key in self._derived

    def __repr__(self) -> str:
        return f"TraceArrays(name={self.name!r}, branches={len(self)})"


def _frozen(stream):
    """``stream`` in a form no consumer can write through."""
    if isinstance(stream, bytearray):
        return bytes(stream)
    if hasattr(stream, "setflags"):
        stream.setflags(write=False)
    return stream


#: ``(trace, arrays)`` of the last :meth:`TraceArrays.from_trace` call.
_LAST_MATERIALIZED: tuple[object, TraceArrays] | None = None
