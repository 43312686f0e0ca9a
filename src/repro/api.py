"""The stable top-level API surface.

One import site for the calls a consumer of this reproduction actually
needs — examples, notebooks, benchmarks and downstream tests should
import from here (or from :mod:`repro` itself for the model classes)
instead of deep-importing internal module paths, which are free to move
between releases:

* :func:`simulate` / :func:`simulate_binary` — run one (trace,
  predictor[, estimator[, controller]]) cell through the selected
  backend; the multi-class §5 observation protocol and the binary
  high/low protocol respectively.
* :func:`run_trace` — the one-call experiment runner: a trace (see
  :func:`resolve_trace`) + TAGE preset + the paper's observation
  estimator (optionally the §6.2 adaptive controller).
* :func:`run_sweep` — execute a declarative
  :class:`~repro.sweep.spec.ExperimentSpec` grid through the
  fault-tolerant broker (caching, journaling, lockstep batching).
* :func:`run_paper` — the full artifact pipeline behind
  ``repro paper`` (every table/figure plus the beyond-paper scenarios).
* :func:`resolve_trace` — any registered trace name → a
  :class:`~repro.traces.types.Trace`: the CBP-1/CBP-2 suites, every
  pluggable source (the scenario zoo) and ``file:<path>`` RTRC
  replays, memoized per process.  It is the one trace lookup:
  ``repro.traces.resolve_trace`` and the sweep workers'
  ``repro.sim.runner.get_trace`` are the same function.
* :class:`Cell` / :class:`Capability` / :func:`get_backend` — the
  backend capability query: "can this backend run this cell, and how
  (fallback? compiled kernel? lockstep batching?)".

Quickstart::

    from repro.api import resolve_trace, run_trace

    trace = resolve_trace("INT-1", 50_000)
    result = run_trace(trace, size="64K")
    print(result.mpki, result.class_table())

Everything here is a re-export; the implementations live where the
docstrings say.  This module exists so those locations can keep moving
without breaking downstream imports.
"""

from repro.artifacts import run_paper
from repro.sim.backends import Capability, Cell, get_backend
from repro.sim.engine import simulate, simulate_binary
from repro.sim.runner import run_trace
from repro.sweep.executor import run_sweep
from repro.traces.sources.base import resolve_trace

__all__ = [
    "simulate",
    "simulate_binary",
    "run_trace",
    "run_sweep",
    "run_paper",
    "resolve_trace",
    "Cell",
    "Capability",
    "get_backend",
]
