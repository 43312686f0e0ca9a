"""The one cell factory: fresh power-on predictor, estimator and controller.

:func:`build_cell` is the single construction of a (predictor,
estimator) cell, shared by sweep jobs, lockstep units, the capability
pre-pass and the serving layer's tenants and offline replays, so a
served cell is built exactly like the equivalent sweep job;
:func:`build_predictor` is its TAGE preset step.  The module imports
only the component classes — neither the sweep broker nor the trace
registry — so a server builds its tenants without loading either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.tage.config import (
    AUTOMATON_PROBABILISTIC,
    AUTOMATON_STANDARD,
    TageConfig,
)
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import Cell

if TYPE_CHECKING:
    from repro.sweep.spec import EstimatorSpec, PredictorSpec

__all__ = ["build_cell", "build_predictor"]

_BASELINE_PREDICTORS = {
    "gshare": GsharePredictor,
    "bimodal": BimodalPredictor,
    "perceptron": PerceptronPredictor,
    "ogehl": OgehlPredictor,
    "local": LocalHistoryPredictor,
}


def build_predictor(
    size: str = "64K",
    automaton: str = AUTOMATON_STANDARD,
    sat_prob_log2: int = 7,
    **overrides,
) -> TagePredictor:
    """Instantiate a preset TAGE predictor.

    Args:
        size: ``"16K"``, ``"64K"`` or ``"256K"`` (paper Table 1).
        automaton: ``"standard"`` or ``"probabilistic"`` (§6).
        sat_prob_log2: saturation probability (probabilistic automaton
            only); 7 → 1/128.
        overrides: any :class:`TageConfig` field override.
    """
    config = TageConfig.preset(
        size,
        automaton=automaton,
        sat_prob_log2=sat_prob_log2,
        **overrides,
    )
    return TagePredictor(config)


def build_cell(
    predictor_spec: PredictorSpec,
    estimator_spec: EstimatorSpec | None,
    *,
    adaptive: bool = False,
    seed: int | None = None,
    target_mkp: float = 10.0,
) -> Cell:
    """Fresh power-on components of one (predictor, estimator) cell.

    ``adaptive`` forces the TAGE probabilistic automaton and, under the
    ``tage`` estimator, attaches the adaptive saturation controller
    aiming at ``target_mkp``.  A non-None ``seed`` re-seeds the TAGE
    deterministic random sources (LFSR + allocation xorshift); the
    baseline predictors hold no random state.  A None
    ``estimator_spec`` gives a predictor-only cell; the ``jrs``,
    ``ejrs`` and ``self`` estimators give a binary one.
    """
    params = dict(predictor_spec.params)
    if predictor_spec.kind == "tage":
        if seed is not None:
            # Two independent 32-bit streams from one job seed; the
            # constants are arbitrary odd masks keeping the seeds nonzero.
            params.setdefault("lfsr_seed", (seed ^ 0xA5A5A5A5) or 1)
            params.setdefault("alloc_seed", (seed ^ 0x3C6EF373) or 1)
        predictor = build_predictor(
            predictor_spec.size,
            automaton=AUTOMATON_PROBABILISTIC if adaptive else predictor_spec.automaton,
            sat_prob_log2=predictor_spec.sat_prob_log2,
            **params,
        )
    else:
        predictor = _BASELINE_PREDICTORS[predictor_spec.kind](**params)
    if estimator_spec is None:
        return Cell(predictor)
    params = dict(estimator_spec.params)
    if estimator_spec.kind == "tage":
        controller = (
            AdaptiveSaturationController(predictor, target_mkp=target_mkp)
            if adaptive
            else None
        )
        return Cell(predictor, TageConfidenceEstimator(predictor, **params),
                    controller)
    if estimator_spec.kind == "jrs":
        estimator = JrsEstimator(**params)
    elif estimator_spec.kind == "ejrs":
        estimator = EnhancedJrsEstimator(**params)
    else:  # "self"
        estimator = SelfConfidenceEstimator(predictor, **params)
    return Cell(predictor, estimator, binary=True)
