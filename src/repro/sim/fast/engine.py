"""Fast-backend entry points over a trace's packed columns.

:func:`simulate_fast` and :func:`simulate_binary_fast` are drop-in,
bit-for-bit equivalents of :func:`repro.sim.engine.simulate` and
:func:`repro.sim.engine.simulate_binary` for the whole model zoo:

* predictors — :class:`~repro.predictors.bimodal.BimodalPredictor`,
  :class:`~repro.predictors.gshare.GsharePredictor` and
  :class:`~repro.predictors.local.LocalHistoryPredictor` (the C counter
  walk of :mod:`repro.sim.fast.counter_core`, or vectorized counter
  scans), :class:`~repro.predictors.tage.TagePredictor`
  (index/tag planes feeding the lean sequential kernel in
  :mod:`repro.sim.fast.tage`) and the sum-based
  :class:`~repro.predictors.perceptron.PerceptronPredictor` /
  :class:`~repro.predictors.ogehl.OgehlPredictor` (the C sum walk of
  :mod:`repro.sim.fast.sum_core`, or the NumPy kernels of
  :mod:`repro.sim.fast.gehl`);
* estimators — the binary :class:`~repro.confidence.jrs.JrsEstimator` /
  :class:`~repro.confidence.jrs.EnhancedJrsEstimator` (the counter walk
  over any predictor's stream, or vectorized), the storage-free
  :class:`~repro.confidence.self_confidence.SelfConfidenceEstimator`
  (read off the sum walk's outputs) and the multi-class
  :class:`~repro.confidence.estimator.TageConfidenceEstimator`
  (read directly off the TAGE kernel's observations);
* the §6.2 :class:`~repro.confidence.adaptive.AdaptiveSaturationController`
  feedback loop, folded into the TAGE kernel with an identical
  decision/LFSR stream.

Each cell runs on one leg (:mod:`repro.sim.fast.capability`).  On the C
leg — every supported cell with the C build — this module hands the
trace's packed columns to the compiled kernels and never imports NumPy;
the NumPy leg (:mod:`repro.sim.fast.vectorized`) is imported only
without it.  Exact-type subclass checks and >62-bit history windows are
the only exclusions; those raise
:class:`FastBackendUnsupported` and the dispatching wrappers in
:mod:`repro.sim.engine` fall back to the reference loop with a
:class:`FastBackendFallbackWarning`.

The fast path never calls ``predict``/``train`` — the predictor and
estimator instances are only read for their configuration and are left
in their power-on state.  That makes every per-branch stream a function
of the trace and that configuration alone, so the cells of one trace
share them through :meth:`~repro.sim.fast.arrays.TraceArrays.derived`.
"""

from __future__ import annotations

from repro.confidence.metrics import BinaryConfidenceMetrics
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import FastBackendUnsupported
from repro.sim.engine import SimulationResult
from repro.sim.fast import compiled
from repro.sim.fast.arrays import TraceArrays
from repro.sim.fast.capability import (
    WALK_PREDICTORS,
    binary_unsupported_reason,
    prediction_stream_key,
    unsupported_reason,
)
from repro.sim.fast.counter_core import walk
from repro.sim.fast.gehl import sum_streams
from repro.sim.fast.sum_core import sum_counts
from repro.sim.fast.tage import simulate_tage_fast, tage_fast_predictions

__all__ = ["simulate_fast", "simulate_binary_fast"]


def _result(trace, predictor, mispredictions: int) -> SimulationResult:
    return SimulationResult(
        trace_name=trace.name,
        predictor_name=getattr(predictor, "name", type(predictor).__name__),
        n_branches=len(trace),
        n_instructions=trace.total_instructions,
        mispredictions=mispredictions,
        storage_bits=predictor.storage_bits(),
    )


def simulate_fast(
    trace,
    predictor,
    estimator=None,
    controller=None,
    warmup_branches: int = 0,
) -> SimulationResult:
    """Fast-backend equivalent of :func:`repro.sim.engine.simulate`.

    TAGE cells — with or without the multi-class observation estimator
    and the §6.2 adaptive controller — run on the plane-fed sequential
    kernel over planes built chunk by chunk.  With the C build,
    bimodal/gshare/local accuracy runs on the counter walk and
    perceptron/O-GEHL on the sum walk; without it, on the NumPy leg.

    Raises:
        FastBackendUnsupported: when the predictor/estimator/controller
            combination is outside the fast family.
    """
    if warmup_branches < 0:
        raise ValueError(f"warmup_branches must be non-negative, got {warmup_branches}")
    reason = unsupported_reason(predictor, estimator=estimator, controller=controller)
    if reason is not None:
        raise FastBackendUnsupported(reason)
    if type(predictor) is TagePredictor:
        return simulate_tage_fast(
            trace,
            predictor,
            estimator=estimator,
            controller=controller,
            warmup_branches=warmup_branches,
        )
    arrays = TraceArrays.from_trace(trace)
    kernel = compiled.resolve_counter_walk_kernel()
    if kernel is None:
        from repro.sim.fast import vectorized

        mispredictions = vectorized.mispredictions(predictor, arrays)
    elif type(predictor) in WALK_PREDICTORS:
        mispredictions, _ = walk(kernel, arrays, predictor, None)
    else:
        mispredictions, _ = sum_counts(*sum_streams(arrays, predictor),
                                       arrays.taken_column)
    return _result(trace, predictor, mispredictions)


def simulate_binary_fast(
    trace,
    predictor,
    estimator,
    warmup_branches: int = 0,
) -> tuple[BinaryConfidenceMetrics, SimulationResult]:
    """Fast-backend equivalent of :func:`repro.sim.engine.simulate_binary`.

    With the C build a JRS-family table runs on the counter walk: over
    its own bimodal/gshare/local predictions, over the TAGE prediction
    stream the trace's :class:`~repro.sim.fast.arrays.TraceArrays` holds
    (a lockstep unit publishes it; otherwise it is computed and left
    there for the next cell), or over a perceptron's or O-GEHL's sum
    walk stream.  Self-confidence counts are a byte-column reduction
    (:func:`~repro.sim.fast.sum_core.sum_counts`) of that walk's
    outputs, and without the C build every binary cell runs on the
    NumPy leg's vectorized scans.

    Raises:
        FastBackendUnsupported: when the predictor or the estimator is
            outside the fast family.
    """
    if warmup_branches < 0:
        raise ValueError(f"warmup_branches must be non-negative, got {warmup_branches}")
    reason = binary_unsupported_reason(predictor, estimator)
    if reason is not None:
        raise FastBackendUnsupported(reason)
    arrays = TraceArrays.from_trace(trace)
    kernel = compiled.resolve_counter_walk_kernel()
    if kernel is None:
        from repro.sim.fast import vectorized

        mispredictions, confusion = vectorized.binary_counts(
            predictor, estimator, arrays, warmup_branches)
    elif type(estimator) is SelfConfidenceEstimator:
        mispredictions, confusion = sum_counts(
            *sum_streams(arrays, predictor), arrays.taken_column,
            warmup_branches)
    elif type(predictor) in WALK_PREDICTORS:
        mispredictions, confusion = walk(kernel, arrays, predictor, estimator,
                                         warmup_branches)
    else:
        mispredictions, confusion = walk(
            kernel, arrays, None, estimator, warmup_branches,
            _prediction_stream(predictor, arrays))
    return (BinaryConfidenceMetrics(*confusion),
            _result(trace, predictor, mispredictions))


def _prediction_stream(predictor, arrays: TraceArrays):
    """The per-branch predictions a JRS walk is given: the TAGE stream
    on the trace's arrays (published by a lockstep unit, or computed and
    left there), else a perceptron's or O-GEHL's from the sum walk
    (shared with the trace's self-confidence cells)."""
    if type(predictor) is TagePredictor:
        return arrays.derived(prediction_stream_key(predictor),
                              lambda: tage_fast_predictions(arrays, predictor))
    return sum_streams(arrays, predictor)[0]
