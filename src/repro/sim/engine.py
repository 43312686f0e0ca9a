"""The reference engine: one per-branch step function and its drivers.

:func:`step_batch` is the only place the per-branch step order is
written — predict, classify (§5 class) or assess (binary flag),
observe, the optional §6.2 controller, then train.  It advances a
:class:`~repro.sim.backends.Cell`'s component objects over a batch of
``pcs``/``takens`` and returns the per-branch predictions and codes,
so a later batch resumes where the last one stopped.  Every reference
caller — :func:`simulate`, :func:`simulate_binary`,
:func:`repro.sim.observe.observe_trace`, the serving layer's binary
sessions and offline replays — is a thin reduction over those streams.

:func:`simulate` reports overall accuracy (misp/KI, the paper's Table 1
metric) plus the per-class / per-level breakdowns behind every other
table and figure; :func:`simulate_binary` reports the 2×2 confusion of a
binary high/low estimator (JRS, enhanced JRS, perceptron/O-GEHL
self-confidence) over any
:class:`~repro.predictors.base.BranchPredictor`.

Both accept ``backend="reference"`` (the step function, the semantic
ground truth the kernels are checked against) or ``backend="fast"``
(the batch engine in :mod:`repro.sim.fast`, bit-for-bit equivalent
where it applies).  A configuration the fast backend cannot run falls
back to the reference engine with a
:class:`~repro.sim.backends.FastBackendFallbackWarning`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import compress
from operator import ne

from repro.sim.backends import (
    Cell,
    DEFAULT_BACKEND,
    FastBackendFallbackWarning,
    FastBackendUnsupported,
    get_backend,
    load_fast_engine,
    validate_backend,
)
from repro.confidence.classes import (
    CLASS_ORDER,
    CODE_OF_CLASS,
    ConfidenceLevel,
    LEVEL_OF_CODE,
    LEVEL_ORDER,
    OBSERVATION_CLASS_CODES,
    PredictionClass,
    confidence_level_of,
)
from repro.confidence.metrics import BinaryConfidenceMetrics, ClassBreakdown, mkp

__all__ = [
    "SimulationResult",
    "class_breakdown",
    "simulate",
    "simulate_binary",
    "step_batch",
]


def step_batch(cell: Cell, pcs, takens) -> tuple[list[bool], list[int] | None]:
    """Advance ``cell`` over one batch of branches, in trace order.

    Per branch: the predictor predicts; a §5 estimator classifies the
    prediction (reading ``predictor.last_prediction``) or a binary
    estimator (``cell.binary``) assesses it; the estimator observes the
    outcome; a §6.2 controller, when attached, sees the class's
    confidence level and whether the branch mispredicted; the predictor
    trains.  All state stays in the component objects.

    Returns the per-branch predictions and codes — §5 class codes
    (indices into :data:`~repro.confidence.classes.OBSERVATION_CLASS_CODES`)
    or the 0/1 high-confidence flag — with ``None`` for codes when the
    cell has no estimator.
    """
    predictor = cell.predictor
    estimator = cell.estimator
    predict = predictor.predict
    train = predictor.train
    predictions: list[bool] = []
    emit_prediction = predictions.append
    if estimator is None:
        for pc, taken_byte in zip(pcs, takens):
            emit_prediction(predict(pc))
            train(pc, taken_byte == 1)
        return predictions, None
    codes: list[int] = []
    emit_code = codes.append
    observe = estimator.observe
    if cell.binary:
        assess = estimator.assess
        for pc, taken_byte in zip(pcs, takens):
            taken = taken_byte == 1
            prediction = predict(pc)
            emit_prediction(prediction)
            emit_code(1 if assess(pc, prediction) else 0)
            observe(pc, prediction, taken)
            train(pc, taken)
        return predictions, codes
    classify = estimator.classify
    controller = cell.controller
    code_of = CODE_OF_CLASS
    level_of = LEVEL_OF_CODE
    for pc, taken_byte in zip(pcs, takens):
        taken = taken_byte == 1
        prediction = predict(pc)
        observation = predictor.last_prediction
        code = code_of[classify(observation)]
        emit_prediction(prediction)
        emit_code(code)
        observe(observation, taken)
        if controller is not None:
            controller.observe(level_of[code], prediction != taken)
        train(pc, taken)
    return predictions, codes


def _code_counts(codes, missed: bytes, start: int,
                 n_codes: int) -> tuple[list[int], list[int]]:
    """Per-code branch and misprediction counts from branch ``start``
    on; ``missed`` holds one 0/1 misprediction byte per branch."""
    codes = bytes(codes[start:])
    missed_codes = bytes(compress(codes, missed[start:]))
    return ([codes.count(code) for code in range(n_codes)],
            [missed_codes.count(code) for code in range(n_codes)])


def class_breakdown(predictions, mispredictions) -> ClassBreakdown[PredictionClass]:
    """The §5 breakdown of per-code prediction / misprediction counts.

    Classes with no branch stay absent, as if never recorded.
    """
    classes: ClassBreakdown[PredictionClass] = ClassBreakdown()
    for prediction_class, total, misses in zip(
        OBSERVATION_CLASS_CODES, predictions, mispredictions
    ):
        if total - misses:
            classes.record(prediction_class, mispredicted=False, count=total - misses)
        if misses:
            classes.record(prediction_class, mispredicted=True, count=misses)
    return classes


def _dispatch_fast(entry_point: str, kwargs: dict, binary: bool = False):
    """Try the fast backend; return its result or None after warning.

    The fallback decision is the
    :meth:`~repro.sim.backends.Backend.capability` query — the same
    verdict (and reason wording) the sweep executor's pre-pass and the
    CLI read — so a cell can never be judged differently by different
    dispatchers.  The fallback warning is keyed to the
    unsupported-configuration message so mixed sweeps surface each
    distinct fallback once under the default warning filter.
    """
    capability = get_backend("fast").capability(Cell(
        predictor=kwargs.get("predictor"),
        estimator=kwargs.get("estimator"),
        controller=kwargs.get("controller"),
        binary=binary,
    ))
    if not capability:
        warnings.warn(
            f"fast backend cannot run this configuration "
            f"({capability.reason}); falling back to the reference engine",
            FastBackendFallbackWarning,
            stacklevel=3,
        )
        return None
    try:
        fast = load_fast_engine()
        return getattr(fast, entry_point)(**kwargs)
    except FastBackendUnsupported as unsupported:
        # The probe judges the cell, not the trace: a trace the NumPy
        # leg cannot hold (a pc of 2**63 or more) is refused here.
        warnings.warn(trace_fallback_message(kwargs["trace"], unsupported),
                      FastBackendFallbackWarning, stacklevel=3)
    return None


def trace_fallback_message(trace, unsupported) -> str:
    """The one wording of a trace-level fast-backend fallback, shared by
    every dispatcher so a run can report each trace once."""
    return (
        f"fast backend cannot run trace {trace.name!r} ({unsupported}); "
        "falling back to the reference engine"
    )


@dataclass
class SimulationResult:
    """Outcome of one trace × predictor simulation.

    Attributes:
        trace_name / predictor_name: identification.
        n_branches: simulated dynamic branches (after warm-up exclusion
            the counts in ``classes`` may be smaller).
        n_instructions: instructions covered by the trace.
        mispredictions: total mispredicted branches.
        classes: per-:class:`PredictionClass` breakdown (None when no
            estimator was attached).
        storage_bits: predictor storage budget.
    """

    trace_name: str
    predictor_name: str
    n_branches: int
    n_instructions: int
    mispredictions: int
    storage_bits: int
    classes: ClassBreakdown[PredictionClass] | None = None
    final_sat_prob_log2: int | None = None
    _levels: ClassBreakdown[ConfidenceLevel] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def mpki(self) -> float:
        """Mispredictions per kilo-instruction (the paper's accuracy metric)."""
        if self.n_instructions == 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.n_instructions

    @property
    def mkp(self) -> float:
        """Mispredictions per kilo-prediction over the whole trace."""
        return mkp(self.mispredictions, self.n_branches)

    @property
    def accuracy(self) -> float:
        """Fraction of correctly predicted branches."""
        if self.n_branches == 0:
            return 0.0
        return 1.0 - self.mispredictions / self.n_branches

    @property
    def levels(self) -> ClassBreakdown[ConfidenceLevel] | None:
        """The 7-class breakdown projected onto the 3 confidence levels."""
        if self.classes is None:
            return None
        if self._levels is None:
            self._levels = self.classes.grouped(confidence_level_of)
        return self._levels

    def binary_confusion(
        self,
        high_levels: tuple[ConfidenceLevel, ...] = (ConfidenceLevel.HIGH,),
    ) -> BinaryConfidenceMetrics | None:
        """Collapse the 3-level breakdown to the 2×2 high/low confusion.

        The paper's §4 comparison against the binary prior art (JRS,
        self-confidence) treats ``high`` as high confidence and
        ``medium`` ∪ ``low`` as low confidence; pass a different
        ``high_levels`` tuple to move the split.  Returns None when no
        estimator was attached.
        """
        levels = self.levels
        if levels is None:
            return None
        high_predictions = high_mispredictions = 0
        low_predictions = low_mispredictions = 0
        for level in LEVEL_ORDER:
            predictions = levels.predictions(level)
            mispredictions = levels.mispredictions(level)
            if level in high_levels:
                high_predictions += predictions
                high_mispredictions += mispredictions
            else:
                low_predictions += predictions
                low_mispredictions += mispredictions
        return BinaryConfidenceMetrics(
            high_correct=high_predictions - high_mispredictions,
            high_incorrect=high_mispredictions,
            low_correct=low_predictions - low_mispredictions,
            low_incorrect=low_mispredictions,
        )

    def class_mpki_contribution(self, prediction_class: PredictionClass) -> float:
        """This class's share of MPKI (the paper's right-hand figure bars)."""
        if self.classes is None or self.n_instructions == 0:
            return 0.0
        return 1000.0 * self.classes.mispredictions(prediction_class) / self.n_instructions

    def class_table(self) -> str:
        """Human-readable per-class summary."""
        if self.classes is None:
            return f"{self.trace_name}: no confidence estimator attached"
        lines = [
            f"{self.trace_name} ({self.predictor_name}): "
            f"{self.mpki:.2f} misp/KI, {self.mkp:.1f} MKP"
        ]
        for prediction_class in CLASS_ORDER:
            lines.append(
                f"  {prediction_class.value:<16} "
                f"Pcov={self.classes.pcov(prediction_class):6.1%} "
                f"MPcov={self.classes.mpcov(prediction_class):6.1%} "
                f"MPrate={self.classes.mprate(prediction_class):7.1f} MKP"
            )
        levels = self.levels
        assert levels is not None
        for level in LEVEL_ORDER:
            lines.append(
                f"  [{level.value:<6}]         "
                f"Pcov={levels.pcov(level):6.1%} "
                f"MPcov={levels.mpcov(level):6.1%} "
                f"MPrate={levels.mprate(level):7.1f} MKP"
            )
        return "\n".join(lines)


def simulate(
    trace,
    predictor,
    estimator=None,
    controller=None,
    warmup_branches: int = 0,
    backend: str = DEFAULT_BACKEND,
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` with optional confidence observation.

    Args:
        trace: a :class:`repro.traces.types.Trace`.
        predictor: a :class:`repro.predictors.tage.TagePredictor` when an
            estimator is attached (the estimator reads
            ``predictor.last_prediction``); any
            :class:`~repro.predictors.base.BranchPredictor` otherwise.
        estimator: optional
            :class:`~repro.confidence.estimator.TageConfidenceEstimator`.
        controller: optional
            :class:`~repro.confidence.adaptive.AdaptiveSaturationController`;
            receives every (level, mispredicted) pair.
        warmup_branches: leading branches excluded from the *class*
            accounting (the predictor still trains; overall accuracy
            still covers the whole trace, like the paper's runs).
        backend: ``"reference"`` or ``"fast"``; the fast backend is
            bit-for-bit equivalent where supported — including TAGE
            cells with the §6.2 adaptive ``controller`` attached — and
            falls back here (with a
            :class:`FastBackendFallbackWarning`) where not.  Note the
            fast path leaves ``predictor`` (and the controller)
            untrained/unmoved, and computes its TAGE planes in memory.
    """
    validate_backend(backend)
    if warmup_branches < 0:
        raise ValueError(f"warmup_branches must be non-negative, got {warmup_branches}")
    if backend == "fast":
        outcome = _dispatch_fast("simulate_fast", dict(
            trace=trace,
            predictor=predictor,
            estimator=estimator,
            controller=controller,
            warmup_branches=warmup_branches,
        ))
        if outcome is not None:
            return outcome
    predictions, codes = step_batch(
        Cell(predictor, estimator, controller), trace.pcs, trace.takens
    )
    missed = bytes(map(ne, predictions, trace.takens))
    classes = None
    if estimator is not None:
        classes = class_breakdown(*_code_counts(
            codes, missed, warmup_branches, len(OBSERVATION_CLASS_CODES)
        ))
    return SimulationResult(
        trace_name=trace.name,
        predictor_name=getattr(predictor, "name", type(predictor).__name__),
        n_branches=len(trace),
        n_instructions=trace.total_instructions,
        mispredictions=missed.count(1),
        storage_bits=predictor.storage_bits(),
        classes=classes,
        final_sat_prob_log2=(
            controller.sat_prob_log2 if controller is not None else None
        ),
    )


def simulate_binary(
    trace,
    predictor,
    estimator,
    warmup_branches: int = 0,
    backend: str = DEFAULT_BACKEND,
) -> tuple[BinaryConfidenceMetrics, SimulationResult]:
    """Run a binary high/low confidence estimator over a trace.

    The estimator must implement ``assess(pc, prediction) -> bool`` (True
    = high confidence) and ``observe(pc, prediction, taken)``; JRS,
    enhanced JRS and the self-confidence wrappers all do.

    ``backend="fast"`` runs every in-family predictor × JRS-family cell
    and the perceptron/O-GEHL × self-confidence cells bit-exactly and
    falls back here (with a warning) for the rest; the fast path leaves
    the predictor and estimator untrained.

    Returns the pooled 2×2 confusion and the accuracy result.
    """
    validate_backend(backend)
    if warmup_branches < 0:
        raise ValueError(f"warmup_branches must be non-negative, got {warmup_branches}")
    if backend == "fast":
        outcome = _dispatch_fast("simulate_binary_fast", dict(
            trace=trace,
            predictor=predictor,
            estimator=estimator,
            warmup_branches=warmup_branches,
        ), binary=True)
        if outcome is not None:
            return outcome
    predictions, codes = step_batch(
        Cell(predictor, estimator, binary=True), trace.pcs, trace.takens
    )
    missed = bytes(map(ne, predictions, trace.takens))
    (low, high), (low_missed, high_missed) = _code_counts(
        codes, missed, warmup_branches, 2
    )
    metrics = BinaryConfidenceMetrics(
        high_correct=high - high_missed,
        high_incorrect=high_missed,
        low_correct=low - low_missed,
        low_incorrect=low_missed,
    )
    result = SimulationResult(
        trace_name=trace.name,
        predictor_name=getattr(predictor, "name", type(predictor).__name__),
        n_branches=len(trace),
        n_instructions=trace.total_instructions,
        mispredictions=missed.count(1),
        storage_bits=predictor.storage_bits(),
    )
    return metrics, result
