"""The NumPy-free core of the sum-based predictors on the C leg.

One C walk (:func:`repro.sim.fast.compiled.resolve_sum_walk_kernel`)
runs a perceptron or an O-GEHL predictor over a batch of branches and
writes each branch's prediction and §2.2 self-confidence flag.  The
perceptron's inputs come from one carried global-history register
(``history_length`` is at most 62, so the register holds the whole
window), and O-GEHL's table indices from carried folded registers
advanced off a ring of the longest history's outcomes — so the walk
builds no index column, history window or index plane: it reads the
trace's packed columns directly.

Like the counter walk's (:mod:`repro.sim.fast.counter_core`), a walk's
state is caller-owned: :func:`sum_params` packs the predictor's
configuration into the ``SP_*`` row, :func:`sum_power_on` makes the
``SS_*`` block the walk resumes from and leaves advanced, and
:func:`sum_counts` reduces the walk's output columns to the
misprediction count and the warm confusion.  Walking a trace in any
number of batches through one block is bit-identical to one pass.
"""

from __future__ import annotations

from array import array

from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.sim.fast import compiled

__all__ = ["sum_params", "sum_power_on", "sum_counts", "sum_walk"]

#: ``SP_KIND`` values.
_KIND_PERCEPTRON, _KIND_OGEHL = 1, 2


def sum_params(predictor) -> array:
    """The ``SP_*`` row (int64) of a (non-subclassed) perceptron or
    O-GEHL predictor, which is only read.

    O-GEHL starts from its power-on threshold (``n_tables``), not the
    instance's live one.
    """
    if type(predictor) is PerceptronPredictor:
        return array("q", [
            _KIND_PERCEPTRON, predictor.log_entries, predictor._weight_min,
            predictor._weight_max, predictor.threshold,
            predictor.history_length, 0,
        ])
    if type(predictor) is OgehlPredictor:
        lengths = predictor.history_lengths
        row = [_KIND_OGEHL, predictor.log_entries, predictor._ctr_min,
               predictor._ctr_max, predictor.n_tables, lengths[-1],
               predictor.n_tables]
        for length in lengths:
            row += [length, length % predictor.log_entries]
        return array("q", row)
    raise TypeError(f"the sum walk cannot run {type(predictor).__name__}")


def sum_power_on(sparams) -> array:
    """A freshly powered-on ``SS_*`` block (int64): empty history,
    zeroed tables, the power-on threshold."""
    state = compiled.int64_block(compiled.sum_words(sparams))
    state[compiled.SS_THRESHOLD] = sparams[compiled.SP_THRESHOLD]
    return state


def sum_counts(predictions, high, takens,
               warmup: int = 0) -> tuple[int, tuple[int, int, int, int]]:
    """``(mispredictions, (high_correct, high_incorrect, low_correct,
    low_incorrect))`` of 0/1 byte columns: the mispredictions over
    every branch, the confusion from branch ``warmup`` on.

    Each column is read as one little-endian integer (branch ``t`` at
    bit ``8 * t``), so the counts are a few big-integer xors, shifts
    and popcounts rather than a loop over branches.
    """
    n = len(predictions)
    warmup = min(warmup, n)
    wrong = (int.from_bytes(predictions, "little")
             ^ int.from_bytes(takens, "little"))
    confident = int.from_bytes(high, "little") >> 8 * warmup
    warm_wrong = wrong >> 8 * warmup
    high_wrong = (confident & warm_wrong).bit_count()
    n_high = confident.bit_count()
    n_wrong = warm_wrong.bit_count()
    return wrong.bit_count(), (
        n_high - high_wrong,
        high_wrong,
        n - warmup - n_high - n_wrong + high_wrong,
        n_wrong - high_wrong,
    )


def sum_walk(kernel, arrays, predictor) -> tuple[bytearray, bytearray]:
    """One whole-trace walk of ``arrays`` (a
    :class:`~repro.sim.fast.arrays.TraceArrays`) on the C ``kernel``;
    returns the per-branch (predictions, self-confidence) byte columns."""
    sparams = sum_params(predictor)
    state = sum_power_on(sparams)
    n = len(arrays)
    predictions, high = bytearray(n), bytearray(n)
    kernel(n, sparams, state, arrays.pc_column, arrays.taken_column,
           predictions, high)
    return predictions, high
