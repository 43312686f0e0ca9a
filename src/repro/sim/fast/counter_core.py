"""The NumPy-free core of the counter family on the C leg.

One C walk (:func:`repro.sim.fast.compiled.resolve_counter_walk_kernel`)
runs a bimodal, gshare or two-level local predictor and/or a JRS/eJRS
confidence table over a batch of branches.  The gshare and JRS index
hashes read one carried global-history register and a local
predictor's PHT index its carried level-1 history table, so the walk
needs no whole-trace history windows, folds or transform arrays — it
reads the trace's packed columns directly.  The JRS table's
predictions are the walk's own, or given: a published TAGE stream, or
a NumPy-leg predictor's.

Like the TAGE kernel's (:mod:`repro.sim.fast.tage_core`), a walk's
state is caller-owned: :func:`walk_params` packs the cell's
configuration into the ``CP_*`` row, :func:`walk_power_on` makes the
``CS_*`` block the walk resumes from and leaves advanced, and
:func:`walk_counts` reads the accumulated counts back.  Walking a trace
in any number of batches through one block is bit-identical to one
pass.
"""

from __future__ import annotations

from array import array

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.sim.fast import compiled

__all__ = ["walk_params", "walk_power_on", "walk_counts", "walk"]

#: ``CP_KIND`` values.
_KIND_GIVEN, _KIND_BIMODAL, _KIND_GSHARE = 0, 1, 2
_KIND_LOCAL_SHARED, _KIND_LOCAL_PRIVATE = 3, 4


def walk_params(predictor, estimator, warmup: int) -> array:
    """The ``CP_*`` row (int64) of one cell.

    ``predictor`` is a (non-subclassed) bimodal, gshare or local
    predictor, or None when the walk is given its predictions;
    ``estimator`` is a JRS-family table or None.  The instances are
    only read.
    """
    kind, log_entries, history, counter_max, weak_not_taken = (
        _KIND_GIVEN, 0, 0, 0, 0)
    log_histories = 0
    if type(predictor) is BimodalPredictor:
        kind = _KIND_BIMODAL
        log_entries = predictor.log_entries
        counter_max = (1 << predictor.counter_bits) - 1
        weak_not_taken = (1 << (predictor.counter_bits - 1)) - 1
    elif type(predictor) is GsharePredictor:
        kind = _KIND_GSHARE
        log_entries = predictor.log_entries
        history = predictor.history_length
        counter_max, weak_not_taken = 3, 1
    elif type(predictor) is LocalHistoryPredictor:
        kind = (_KIND_LOCAL_SHARED if predictor.shared_pht
                else _KIND_LOCAL_PRIVATE)
        log_entries = predictor.log_pht
        history = predictor.history_length
        counter_max, weak_not_taken = 3, 1
        log_histories = predictor.log_histories
    elif predictor is not None:
        raise TypeError(f"the counter walk cannot run {type(predictor).__name__}")
    jrs = [0, 0, 0, 0, 0]
    if estimator is not None:
        jrs = [estimator.log_entries, estimator.history_length,
               (1 << estimator.counter_bits) - 1, estimator.threshold,
               1 if estimator.include_prediction else 0]
    return array("q", [kind, log_entries, history, counter_max,
                       weak_not_taken, log_histories, *jrs, warmup])


def walk_power_on(cparams) -> array:
    """A freshly powered-on ``CS_*`` block (int64): empty histories, no
    counts, predictor counters weakly taken, JRS counters zero."""
    start = compiled.CS_TABLES
    if cparams[compiled.CP_LOG_HISTORIES]:
        start += 1 << cparams[compiled.CP_LOG_HISTORIES]
    stop = start
    if cparams[compiled.CP_KIND]:
        stop += 1 << cparams[compiled.CP_LOG_ENTRIES]
    return compiled.int64_block(compiled.walk_words(cparams), start, stop,
                                cparams[compiled.CP_WEAK_NOT_TAKEN] + 1)


def walk_counts(state) -> tuple[int, tuple[int, int, int, int]]:
    """``(mispredictions, (high_correct, high_incorrect, low_correct,
    low_incorrect))`` accumulated in a walk's state block."""
    base = compiled.CS_CONFUSION
    return (state[compiled.CS_MISPREDICTIONS],
            tuple(state[base:base + 4]))


def walk(kernel, arrays, predictor, estimator, warmup: int = 0, given=None):
    """One whole-trace walk of ``arrays`` (a
    :class:`~repro.sim.fast.arrays.TraceArrays`) on the C ``kernel``;
    returns :func:`walk_counts`."""
    cparams = walk_params(predictor, estimator, warmup)
    state = walk_power_on(cparams)
    kernel(len(arrays), cparams, state, arrays.pc_column, arrays.taken_column,
           given, None, None)
    return walk_counts(state)
