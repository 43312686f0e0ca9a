"""Per-branch observation streams for the application models.

The apps layer (fetch gating, SMT fetch arbitration, multipath
execution) consumes the same per-branch signal the confidence tables
aggregate: *(prediction, mispredicted, observation class)* for every
branch of a trace, in trace order.  :func:`observe_trace` produces that
stream on either simulation backend — the reference per-branch loop
here, or the fast TAGE kernel (which already has every value in hand
and only needs to emit it) — so the policy models themselves become
pure replay passes with no predictor in the loop.

The stream encodes observation classes as small integer codes
(:data:`OBSERVATION_CLASS_CODES`, the same encoding the fast kernel
uses internally) and maps them to :class:`PredictionClass` /
:class:`ConfidenceLevel` lazily, keeping this module NumPy-free like
the rest of the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.confidence.classes import (
    ConfidenceLevel,
    PredictionClass,
    confidence_level_of,
)
from repro.sim.backends import DEFAULT_BACKEND, validate_backend
from repro.sim.engine import _dispatch_fast

__all__ = ["OBSERVATION_CLASS_CODES", "ObservationStream", "observe_trace"]

#: Class-code encoding shared by the reference stream loop and the fast
#: TAGE kernel: ``OBSERVATION_CLASS_CODES[code]`` is the class of code.
OBSERVATION_CLASS_CODES: tuple[PredictionClass, ...] = (
    PredictionClass.HIGH_CONF_BIM,
    PredictionClass.LOW_CONF_BIM,
    PredictionClass.MEDIUM_CONF_BIM,
    PredictionClass.STAG,
    PredictionClass.NSTAG,
    PredictionClass.NWTAG,
    PredictionClass.WTAG,
)

_CODE_OF_CLASS = {
    prediction_class: code
    for code, prediction_class in enumerate(OBSERVATION_CLASS_CODES)
}

_LEVEL_OF_CODE = tuple(
    confidence_level_of(prediction_class)
    for prediction_class in OBSERVATION_CLASS_CODES
)


@dataclass
class ObservationStream:
    """One trace's per-branch confidence observations, in trace order.

    Attributes:
        trace_name: identification.
        predictions: per-branch predicted directions.
        mispredicted: per-branch misprediction flags.
        class_codes: per-branch observation class codes (indices into
            :data:`OBSERVATION_CLASS_CODES`).
    """

    trace_name: str
    predictions: list[bool]
    mispredicted: list[bool]
    class_codes: list[int]
    _levels: list[ConfidenceLevel] | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.class_codes)

    @property
    def levels(self) -> list[ConfidenceLevel]:
        """Per-branch §6.1 confidence levels (computed once, cached)."""
        if self._levels is None:
            level_of = _LEVEL_OF_CODE
            self._levels = [level_of[code] for code in self.class_codes]
        return self._levels

    @property
    def classes(self) -> list[PredictionClass]:
        """Per-branch §5 observation classes."""
        class_of = OBSERVATION_CLASS_CODES
        return [class_of[code] for code in self.class_codes]

    @property
    def mispredictions(self) -> int:
        return sum(self.mispredicted)


def _observe_reference(trace, predictor, estimator) -> ObservationStream:
    """The per-branch reference loop, recording instead of aggregating.

    Step order per branch matches :func:`repro.sim.engine.simulate` (and
    the historical in-loop apps models): predict, classify, observe,
    train — so the stream is exactly what a confidence-directed front
    end would have seen.
    """
    predictions: list[bool] = []
    mispredicted: list[bool] = []
    class_codes: list[int] = []
    predict = predictor.predict
    train = predictor.train
    classify = estimator.classify
    observe = estimator.observe
    code_of = _CODE_OF_CLASS
    for pc, taken_byte in zip(trace.pcs, trace.takens):
        taken = taken_byte == 1
        prediction = predict(pc)
        observation = predictor.last_prediction
        class_codes.append(code_of[classify(observation)])
        predictions.append(prediction)
        mispredicted.append(prediction != taken)
        observe(observation, taken)
        train(pc, taken)
    return ObservationStream(
        trace_name=trace.name,
        predictions=predictions,
        mispredicted=mispredicted,
        class_codes=class_codes,
    )


def observe_trace(
    trace,
    predictor,
    estimator,
    backend: str = DEFAULT_BACKEND,
) -> ObservationStream:
    """The per-branch observation stream of one trace × predictor ×
    estimator cell, on either backend.

    ``backend="fast"`` reads the stream off the fast TAGE kernel
    (bit-for-bit identical; the predictor and estimator instances stay
    in their power-on state) and falls back here with a
    :class:`FastBackendFallbackWarning` for cells outside the fast
    family, mirroring :func:`repro.sim.engine.simulate`.
    """
    validate_backend(backend)
    if backend == "fast":
        outcome = _dispatch_fast("observe_tage_fast", dict(
            trace=trace,
            predictor=predictor,
            estimator=estimator,
        ))
        if outcome is not None:
            predictions, codes = outcome
            takens = trace.takens
            return ObservationStream(
                trace_name=trace.name,
                predictions=predictions,
                mispredicted=[
                    prediction != (takens[index] == 1)
                    for index, prediction in enumerate(predictions)
                ],
                class_codes=codes,
            )
    return _observe_reference(trace, predictor, estimator)
