"""Trace lookup and the one-trace run.

Thin composition layer between the trace registry (:func:`get_trace` is
:func:`repro.traces.sources.base.resolve_trace`, the one lookup of every
trace name), the predictor presets (:func:`build_predictor`, re-exported
from :mod:`repro.sim.cells`) and the simulation engine.  Grids of cells
(a suite, a paper table) run through :func:`repro.sweep.run_sweep`.
"""

from __future__ import annotations

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.predictors.tage.config import AUTOMATON_PROBABILISTIC, AUTOMATON_STANDARD
from repro.sim.backends import DEFAULT_BACKEND
from repro.sim.cells import build_predictor
from repro.sim.engine import SimulationResult, simulate
from repro.traces.sources.base import resolve_trace as get_trace
from repro.traces.types import Trace

__all__ = [
    "build_predictor",
    "get_trace",
    "run_trace",
]


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
