"""Per-branch observation streams for the application models.

The apps layer (fetch gating, SMT fetch arbitration, multipath
execution) consumes the same per-branch signal the confidence tables
aggregate: *(prediction, mispredicted, observation class)* for every
branch of a trace, in trace order.  :func:`observe_trace` produces that
stream on either simulation backend — the reference engine's
:func:`~repro.sim.engine.step_batch` over the whole trace, or the fast
TAGE kernel (which already has every value in hand and only needs to
emit it) — so the policy models themselves become pure replay passes
with no predictor in the loop.

The stream carries observation classes as the small integer codes of
:data:`~repro.confidence.classes.OBSERVATION_CLASS_CODES` (re-exported
here) and maps them to :class:`PredictionClass` /
:class:`ConfidenceLevel` lazily, keeping this module NumPy-free like
the rest of the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import ne

from repro.confidence.classes import (
    LEVEL_OF_CODE,
    OBSERVATION_CLASS_CODES,
    ConfidenceLevel,
    PredictionClass,
)
from repro.sim.backends import DEFAULT_BACKEND, Cell, validate_backend
from repro.sim.engine import _dispatch_fast, step_batch

__all__ = ["OBSERVATION_CLASS_CODES", "ObservationStream", "observe_trace"]


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
            level_of = LEVEL_OF_CODE
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
    outcome = None
    if backend == "fast":
        outcome = _dispatch_fast("observe_tage_fast", dict(
            trace=trace,
            predictor=predictor,
            estimator=estimator,
        ))
    if outcome is None:
        outcome = step_batch(Cell(predictor, estimator), trace.pcs, trace.takens)
    predictions, codes = outcome
    return ObservationStream(
        trace_name=trace.name,
        predictions=predictions,
        mispredicted=list(map(ne, predictions, trace.takens)),
        class_codes=codes,
    )
