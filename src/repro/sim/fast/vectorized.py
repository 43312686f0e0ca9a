"""The NumPy leg of the counter family and of the sum-based predictors.

Bimodal/gshare/local predictions and JRS/eJRS assessments as
vectorized clamp-add scans (:mod:`repro.sim.fast.scan`) over whole-trace
index columns built from history windows
(:mod:`repro.sim.fast.windows`); perceptron/O-GEHL predictions and
self-confidence from the NumPy kernels of :mod:`repro.sim.fast.gehl`.
:mod:`repro.sim.fast.engine` imports this module only on the NumPy leg
(no C build); the C leg's counter and sum walks
(:mod:`repro.sim.fast.counter_core`, :mod:`repro.sim.fast.sum_core`)
need none of it.

Why this is exact: for every supported component the table *indices
and input signs* depend only on the branch PC and the resolved outcome
history — never on predictions — so they are precomputable from the
trace alone, and bimodal/gshare/local/JRS counter sequences are
clamp-add scans.  The streams are shared per trace through
:meth:`~repro.sim.fast.arrays.TraceArrays.derived`: each predictor
configuration's prediction stream (for the sum-based predictors, the
(predictions, self-confidence) pair) and each JRS geometry's base
index are computed once per materialized trace.
"""

from __future__ import annotations

import numpy as np

from repro.common.bitops import mask
from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.sim.backends import FastBackendUnsupported
from repro.sim.fast.arrays import TraceArrays
from repro.sim.fast.capability import (
    SUM_PREDICTORS,
    jrs_reason,
    prediction_stream_key,
    predictor_reason,
)
from repro.sim.fast.gehl import sum_streams
from repro.sim.fast.scan import (
    resetting_transforms,
    saturating_transforms,
    scanned_counters,
)
from repro.sim.fast.tage import tage_fast_predictions
from repro.sim.fast.windows import (
    fold_windows,
    history_windows,
    segmented_history_windows,
)

__all__ = [
    "as_bool",
    "vectorized_predictions",
    "vectorized_assessments",
    "binary_counts",
]


def as_bool(stream) -> np.ndarray:
    """A prediction stream as a bool ndarray; a ``bytes`` stream (the
    TAGE kernel's output) is viewed, not copied."""
    if isinstance(stream, np.ndarray):
        return stream
    return np.frombuffer(stream, dtype=bool)


def _bimodal_predictions(
    predictor: BimodalPredictor, arrays: TraceArrays
) -> np.ndarray:
    indices = (arrays.pcs >> 2) & mask(predictor.log_entries)
    max_value = (1 << predictor.counter_bits) - 1
    weak_not_taken = (1 << (predictor.counter_bits - 1)) - 1
    b, lo, hi = saturating_transforms(arrays.taken_bool, max_value)
    counters = scanned_counters(
        1 << predictor.log_entries, weak_not_taken + 1,
        indices, b, lo, hi,
    )
    return counters > weak_not_taken


def _gshare_predictions(
    predictor: GsharePredictor, arrays: TraceArrays
) -> np.ndarray:
    windows = history_windows(arrays.takens, predictor.history_length)
    folded = fold_windows(windows, predictor.history_length, predictor.log_entries)
    indices = ((arrays.pcs >> 2) ^ folded) & mask(predictor.log_entries)
    b, lo, hi = saturating_transforms(arrays.taken_bool, 3)
    counters = scanned_counters(
        1 << predictor.log_entries, 2, indices, b, lo, hi
    )
    return counters >= 2


def _local_predictions(
    predictor: LocalHistoryPredictor, arrays: TraceArrays
) -> np.ndarray:
    """Two-level local predictions as two chained vectorized stages.

    The level-1 local histories are per-PC-entry shift registers of
    resolved outcomes — prediction-independent, so every branch's
    pre-access register value is a segmented history window.  The
    level-2 PHT is then an ordinary saturating-counter scan over the
    precomputed pattern indices.
    """
    pc_part = arrays.pcs >> 2
    history_indices = pc_part & mask(predictor.log_histories)
    local = segmented_history_windows(
        history_indices, arrays.takens, predictor.history_length
    )
    if predictor.shared_pht:
        pht_indices = local & mask(predictor.log_pht)
    else:
        pht_indices = (local ^ (pc_part << 2)) & mask(predictor.log_pht)
    b, lo, hi = saturating_transforms(arrays.taken_bool, 3)
    counters = scanned_counters(
        1 << predictor.log_pht, 2, pht_indices, b, lo, hi
    )
    return counters >= 2


def _prediction_pass(predictor, arrays: TraceArrays):
    """One predictions pass of a counter-scan or TAGE predictor."""
    if type(predictor) is BimodalPredictor:
        return _bimodal_predictions(predictor, arrays)
    if type(predictor) is GsharePredictor:
        return _gshare_predictions(predictor, arrays)
    if type(predictor) is LocalHistoryPredictor:
        return _local_predictions(predictor, arrays)
    return tage_fast_predictions(arrays, predictor)


def vectorized_predictions(predictor, arrays: TraceArrays) -> np.ndarray:
    """Per-branch predictions (bool ndarray) of a supported predictor
    over a whole trace.

    TAGE predictions come from the plane-fed sequential kernel
    (:mod:`repro.sim.fast.tage`), perceptron/O-GEHL from the dot-product
    kernels (:mod:`repro.sim.fast.gehl`); bimodal/gshare/local from the
    counter scans.  The stream is computed once per configuration
    (:func:`~repro.sim.fast.capability.prediction_stream_key`) and
    shared, read-only, by every later call on the same ``arrays`` —
    including a stream a lockstep TAGE cell published
    (:class:`~repro.sim.fast.lockstep.LockstepCell`).

    Raises:
        FastBackendUnsupported: for any predictor outside the fast family
            (subclasses of supported types, oversized history windows).
    """
    reason = predictor_reason(predictor)
    if reason is not None:
        raise FastBackendUnsupported(reason)
    if type(predictor) in SUM_PREDICTORS:
        return as_bool(sum_streams(arrays, predictor)[0])
    return as_bool(arrays.derived(
        prediction_stream_key(predictor),
        lambda: _prediction_pass(predictor, arrays),
    ))


def _jrs_index(arrays: TraceArrays, history_length: int,
               log_entries: int) -> np.ndarray:
    """The JRS table index of every branch: PC xor folded global history.

    Kept in the smallest signed dtype that holds ``log_entries`` bits,
    because the stream stays cached for the whole trace; readers widen
    it back to int64.
    """
    windows = history_windows(arrays.takens, history_length)
    value = (arrays.pcs >> 2) ^ fold_windows(windows, history_length, log_entries)
    compact = np.min_scalar_type(-(1 << log_entries))
    return (value & mask(log_entries)).astype(compact)


def vectorized_assessments(
    estimator,
    arrays: TraceArrays,
    predictions: np.ndarray,
) -> np.ndarray:
    """Per-branch high-confidence assessments of a JRS-family estimator.

    The base index depends only on the trace and the table geometry
    ``(history_length, log_entries)``, so it is built once per
    materialized trace and shared by every JRS and eJRS cell of that
    geometry; eJRS appends each branch's prediction bit to it.  The
    counter scan itself reads the cell's correctness stream and runs
    per call.

    Raises:
        FastBackendUnsupported: for estimators outside the JRS family
            (the self-confidence flags come from the sum-based kernels
            instead — see :func:`binary_counts`).
    """
    if type(estimator) not in (JrsEstimator, EnhancedJrsEstimator):
        raise FastBackendUnsupported(
            f"estimator {type(estimator).__name__} is not vectorizable "
            "(supported: JrsEstimator, EnhancedJrsEstimator)"
        )
    reason = jrs_reason(estimator)
    if reason is not None:
        raise FastBackendUnsupported(reason)
    geometry = (estimator.history_length, estimator.log_entries)
    shared = arrays.derived(("jrs-index", *geometry),
                            lambda: _jrs_index(arrays, *geometry))
    indices = shared.astype(np.int64)
    if estimator.include_prediction:
        indices = ((indices << 1) | predictions.astype(np.int64)) & mask(
            estimator.log_entries
        )
    correct = predictions == arrays.taken_bool
    max_value = (1 << estimator.counter_bits) - 1
    b, lo, hi = resetting_transforms(correct, max_value)
    counters = scanned_counters(
        1 << estimator.log_entries, 0, indices, b, lo, hi
    )
    return counters >= estimator.threshold


def mispredictions(predictor, arrays: TraceArrays) -> int:
    """Mispredicted branches of a non-TAGE predictor over the trace."""
    predictions = vectorized_predictions(predictor, arrays)
    return int(np.count_nonzero(predictions != arrays.taken_bool))


def binary_counts(predictor, estimator, arrays: TraceArrays,
                  warmup: int) -> tuple[int, tuple[int, int, int, int]]:
    """``(mispredictions, (high_correct, high_incorrect, low_correct,
    low_incorrect))`` of a binary cell, the confusion from branch
    ``warmup`` on — the counts :func:`repro.sim.fast.counter_core.walk`
    returns on the C leg."""
    if type(estimator) is SelfConfidenceEstimator:
        predictions, high = map(as_bool, sum_streams(arrays, predictor))
    else:
        predictions = vectorized_predictions(predictor, arrays)
        high = vectorized_assessments(estimator, arrays, predictions)
    correct = predictions == arrays.taken_bool
    warm_high = high[warmup:]
    warm_correct = correct[warmup:]
    return int(np.count_nonzero(~correct)), (
        int(np.count_nonzero(warm_high & warm_correct)),
        int(np.count_nonzero(warm_high & ~warm_correct)),
        int(np.count_nonzero(~warm_high & warm_correct)),
        int(np.count_nonzero(~warm_high & ~warm_correct)),
    )
