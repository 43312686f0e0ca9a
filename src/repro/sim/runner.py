"""Trace lookup and the one-trace run.

Thin composition layer between the trace registry, the predictor presets
(:func:`build_predictor`, re-exported from :mod:`repro.sim.cells`) and
the simulation engine.  Grids of cells (a suite, a paper table) run
through :func:`repro.sweep.run_sweep`.
"""

from __future__ import annotations

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.predictors.tage.config import AUTOMATON_PROBABILISTIC, AUTOMATON_STANDARD
from repro.sim.backends import DEFAULT_BACKEND
from repro.sim.cells import build_predictor
from repro.sim.engine import SimulationResult, simulate
from repro.traces.names import CBP1_TRACE_NAMES, CBP2_TRACE_NAMES
from repro.traces.sources.base import is_source_name, resolve_trace
from repro.traces.types import Trace

__all__ = [
    "build_predictor",
    "get_trace",
    "run_trace",
]


def get_trace(name: str, n_branches: int | None = None) -> Trace:
    """Resolve any registered trace name to a trace.

    Covers both CBP suites, every registered
    :class:`~repro.traces.sources.TraceSource` (the scenario zoo) and
    ``file:<path>`` RTRC replay.  This is the picklable-friendly lookup
    the sweep workers use: a job ships only the *name*, and each worker
    process regenerates (and memoizes) the deterministic trace locally
    instead of pickling branch columns across the pipe.
    """
    if name in CBP1_TRACE_NAMES or name in CBP2_TRACE_NAMES:
        # The synthesis modules load on the first CBP lookup only.
        from repro.traces import suites

        if name in CBP1_TRACE_NAMES:
            return suites.cbp1_trace(name, n_branches)
        return suites.cbp2_trace(name, n_branches)
    if is_source_name(name):
        if n_branches is None:
            from repro.traces.suites import default_trace_length

            n_branches = default_trace_length()
        return resolve_trace(name, n_branches)
    raise KeyError(f"unknown trace name {name!r}")


def run_trace(
    trace: Trace,
    size: str = "64K",
    automaton: str = AUTOMATON_STANDARD,
    sat_prob_log2: int = 7,
    bim_miss_window: int = 8,
    adaptive: bool = False,
    target_mkp: float = 10.0,
    warmup_branches: int = 0,
    backend: str = DEFAULT_BACKEND,
    **config_overrides,
) -> SimulationResult:
    """Simulate one trace on a fresh preset predictor with confidence
    observation attached.

    ``adaptive=True`` additionally attaches the §6.2 controller (and
    forces the probabilistic automaton, which the controller requires).

    ``backend`` is threaded through to
    :func:`repro.sim.engine.simulate`.  ``backend="fast"`` runs every
    TAGE preset/automaton with the observation estimator — including
    ``adaptive=True``, whose §6.2 feedback loop is folded into the
    kernel with an identical decision/LFSR stream — on the plane-fed
    kernel, with its planes computed in memory.
    """
    if adaptive:
        automaton = AUTOMATON_PROBABILISTIC
    predictor = build_predictor(
        size, automaton=automaton, sat_prob_log2=sat_prob_log2, **config_overrides
    )
    estimator = TageConfidenceEstimator(predictor, bim_miss_window=bim_miss_window)
    controller = (
        AdaptiveSaturationController(predictor, target_mkp=target_mkp) if adaptive else None
    )
    return simulate(
        trace,
        predictor,
        estimator=estimator,
        controller=controller,
        warmup_branches=warmup_branches,
        backend=backend,
    )
