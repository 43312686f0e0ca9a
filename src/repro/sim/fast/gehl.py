"""Fast kernels for the sum-based predictors (perceptron, O-GEHL).

:func:`perceptron_fast_run` and :func:`ogehl_fast_run` are the entry
points on both legs (:mod:`repro.sim.fast.capability`), and
:func:`sum_streams` shares their output through
:meth:`~repro.sim.fast.arrays.TraceArrays.derived`, so each trace and
configuration gets one pass whichever cells read it:

* **C leg** — the sum walk of :mod:`repro.sim.fast.sum_core` runs
  either predictor from the trace's packed columns and a carried
  state block, and returns the two streams as byte columns.  This
  module imports no NumPy on that leg.
* **NumPy leg** — two kernels that rely on the structural property the
  whole fast backend is built on: table *indices* and per-branch
  history *signs* depend only on the PC and the resolved global
  history — never on predictions — so everything but the weight state
  is precomputable for the whole trace:

  * **perceptron** — the PC index and the ±1 input vector of every
    branch are materialized up front (``history_windows`` bit-unpacked
    into a dense sign matrix), and because each branch touches exactly
    one weight row, the per-row access sequences are independent
    processes the kernel advances in *lockstep*: one batched gather /
    dot / masked clipped-add per access depth instead of one Python
    iteration per branch.
  * **O-GEHL** — the per-table geometric folded-history indices are
    precomputed with the same GF(2) closed form the TAGE planes use
    (:func:`~repro.sim.fast.windows.folded_history_series`); the
    sequential remainder is an M-entry table read/sum and the
    adaptive-threshold (TC) bookkeeping in plain ints.

The *self-confidence* estimators of §2.2 ride along for free: they are
pure functions of the prediction sum (``|sum|`` versus the — for O-GEHL
dynamically adapted — threshold) the kernels have in hand anyway, so
each returns the per-branch high-confidence flags next to the
predictions.

Bit-for-bit equivalence with the reference predictors (including the
exact saturation/clipping arithmetic, the O-GEHL TC threshold walk and
the assess-between-predict-and-train ordering of
:class:`~repro.confidence.self_confidence.SelfConfidenceEstimator`) is
enforced by ``tests/equivalence/test_gehl_differential.py`` on both
legs and, for the sum walk, branch for branch by
``tests/equivalence/test_sum_walk.py``.  The walk has no pure twin:
the NumPy kernels below and the reference engine are its differential
oracles.  Like the rest of the fast backend, the predictor instances
are only read for configuration and stay in their power-on state.
"""

from __future__ import annotations

from repro.common.bitops import mask
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.sim.backends import FastBackendUnsupported
from repro.sim.fast import compiled
from repro.sim.fast.arrays import MAX_WINDOW_BITS, TraceArrays
from repro.sim.fast.capability import (
    MAX_PERCEPTRON_WEIGHT_BITS,
    prediction_stream_key,
)
from repro.sim.fast.sum_core import sum_walk

__all__ = ["perceptron_fast_run", "ogehl_fast_run", "sum_streams"]

#: Longest perceptron history whose packed window fits an int64 lane.
MAX_PERCEPTRON_HISTORY = MAX_WINDOW_BITS


def sum_streams(arrays: TraceArrays, predictor):
    """Per-branch (predictions, self-confidence) of a perceptron or
    O-GEHL predictor, one kernel run per trace and configuration: byte
    columns from the sum walk, bool ndarrays from the NumPy leg."""
    run = (perceptron_fast_run if type(predictor) is PerceptronPredictor
           else ogehl_fast_run)
    return arrays.derived(prediction_stream_key(predictor),
                          lambda: run(arrays, predictor))


def perceptron_fast_run(arrays: TraceArrays, predictor: PerceptronPredictor):
    """Per-branch (predictions, self-confidence flags) of a perceptron:
    the sum walk's byte columns with the C build, else the NumPy
    lockstep kernel's bool ndarrays.

    Raises:
        FastBackendUnsupported: for subclassed predictors, histories
            beyond the packed window width or weights beyond the int64
            weight-table width.
    """
    if type(predictor) is not PerceptronPredictor:
        raise FastBackendUnsupported(
            f"predictor {getattr(predictor, 'name', type(predictor).__name__)!r} "
            "is not the (non-subclassed) perceptron predictor"
        )
    h = predictor.history_length
    if h > MAX_PERCEPTRON_HISTORY:
        raise FastBackendUnsupported(
            f"perceptron history_length {h} exceeds the vectorized window "
            f"width ({MAX_PERCEPTRON_HISTORY} bits)"
        )
    if predictor.weight_bits > MAX_PERCEPTRON_WEIGHT_BITS:
        raise FastBackendUnsupported(
            f"perceptron weight_bits {predictor.weight_bits} exceeds the "
            f"int64 weight-table width ({MAX_PERCEPTRON_WEIGHT_BITS} bits)"
        )
    kernel = compiled.resolve_sum_walk_kernel()
    if kernel is not None:
        return sum_walk(kernel, arrays, predictor)
    return _perceptron_lockstep(arrays, predictor)


def _perceptron_lockstep(arrays: TraceArrays, predictor: PerceptronPredictor):
    """The NumPy leg's perceptron.

    The vectorization axis is *across table rows*: branch ``t`` reads
    and trains only the weight row its PC selects, and the input signs
    are precomputed, so the per-row access sequences are completely
    independent processes.  The kernel therefore walks them in
    lockstep — step ``k`` handles the ``k``-th access of every (still
    active) row as one batched gather / dot / masked clipped-add —
    which needs ``max accesses per row`` NumPy steps instead of one
    Python iteration per branch, and degrades gracefully (never below
    per-branch work) for traces dominated by one hot row.
    """
    import numpy as np

    from repro.sim.fast.windows import history_windows

    h = predictor.history_length
    n = len(arrays)
    predictions = np.empty(n, dtype=bool)
    high = np.empty(n, dtype=bool)
    if n == 0:
        return predictions, high
    indices = ((arrays.pcs >> 2) & mask(predictor.log_entries)).astype(np.int64)
    windows = history_windows(arrays.takens, h)

    # Sign matrix with a constant bias column: row t is [1, x_1 .. x_h]
    # with x_i = +1/-1 for the taken/not-taken history bit of age i-1,
    # so `inputs[t] @ weights[index]` is the full perceptron output.
    # The matrix lives for the whole run (each lockstep batch gathers
    # arbitrary rows of it); int8 keeps that at n*(h+1) bytes — 1/8 of
    # the int64 weights it is multiplied against (the batched dot/add
    # promote, and MAX_PERCEPTRON_WEIGHT_BITS keeps the promoted sums
    # overflow-free) — built one age column at a time so the *build*
    # phase adds only O(n) transients on top.
    inputs = np.empty((n, h + 1), dtype=np.int8)
    inputs[:, 0] = 1
    for age in range(h):
        inputs[:, age + 1] = (((windows >> age) & 1) * 2 - 1).astype(np.int8)

    # Group the trace positions by weight row (stable: trace order is
    # preserved within a row, which is the only order that matters).
    order = np.argsort(indices, kind="stable")
    grouped = indices[order]
    starts = np.flatnonzero(
        np.concatenate(([True], grouped[1:] != grouped[:-1]))
    )
    counts = np.diff(np.concatenate((starts, [n])))
    group_rows = grouped[starts]

    weights = np.zeros((1 << predictor.log_entries, h + 1), dtype=np.int64)
    weight_min = np.int64(predictor._weight_min)
    weight_max = np.int64(predictor._weight_max)
    threshold = predictor.threshold
    taken_bool = arrays.taken_bool

    for k in range(int(counts.max())):
        active = counts > k
        positions = order[starts[active] + k]
        rows = group_rows[active]
        signs = inputs[positions]
        gathered = weights[rows]
        totals = np.einsum("ij,ij->i", signs, gathered)
        batch_predictions = totals >= 0
        taken = taken_bool[positions]
        magnitudes = np.abs(totals)
        predictions[positions] = batch_predictions
        high[positions] = magnitudes > threshold
        train = (batch_predictions != taken) | (magnitudes <= threshold)
        if train.any():
            direction = np.where(taken[train], np.int64(1), np.int64(-1))
            weights[rows[train]] = np.clip(
                gathered[train] + direction[:, None] * signs[train],
                weight_min,
                weight_max,
            )
    return predictions, high


def _ogehl_index_planes(arrays: TraceArrays, predictor: OgehlPredictor):
    """Every table index of every branch, precomputed trace-wide as one
    C-contiguous int64 ``(n_tables, n)`` plane block (NumPy leg).

    Table 0 is PC-indexed; tables 1..M-1 mix the PC with the folded
    geometric history exactly like ``OgehlPredictor._indices`` — and the
    folded register value each branch observes is the GF(2) closed form
    (a live history bit of age ``a`` lands at ``a % log_entries``) of
    :func:`~repro.sim.fast.windows.folded_history_series`.  Every table
    folds into ``log_entries`` bits, so one unbounded fold serves them
    all.
    """
    import numpy as np

    from repro.sim.fast.windows import folded_history_series

    log_entries = predictor.log_entries
    index_mask = mask(log_entries)
    pc_part = arrays.pcs >> 2
    planes = np.empty((predictor.n_tables, len(arrays)), dtype=np.int64)
    planes[0] = pc_part & index_mask
    unbounded_folds: dict = {}
    for table, length in enumerate(predictor.history_lengths, start=1):
        row = folded_history_series(
            arrays.takens, length, log_entries,
            unbounded_folds=unbounded_folds, out=planes[table],
        )
        row ^= pc_part
        row ^= pc_part >> (table + 1)
        row &= index_mask
    return planes


def ogehl_fast_run(arrays: TraceArrays, predictor: OgehlPredictor):
    """Per-branch (predictions, self-confidence flags) of O-GEHL: the
    sum walk's byte columns with the C build, else the NumPy leg's
    scalar loop over precomputed index planes (bool ndarrays).

    Raises:
        FastBackendUnsupported: for subclassed predictors.
    """
    if type(predictor) is not OgehlPredictor:
        raise FastBackendUnsupported(
            f"predictor {getattr(predictor, 'name', type(predictor).__name__)!r} "
            "is not the (non-subclassed) O-GEHL predictor"
        )
    kernel = compiled.resolve_sum_walk_kernel()
    if kernel is not None:
        return sum_walk(kernel, arrays, predictor)
    return _ogehl_scalar(arrays, predictor)


def _ogehl_scalar(arrays: TraceArrays, predictor: OgehlPredictor):
    """The NumPy leg's O-GEHL: index planes, then one scalar loop."""
    import numpy as np

    n = len(arrays)
    planes = _ogehl_index_planes(arrays, predictor)
    n_tables = predictor.n_tables
    ctr_max = predictor._ctr_max
    ctr_min = predictor._ctr_min
    plane_lists = [row.tolist() for row in planes]
    tables = [[0] * (1 << predictor.log_entries) for _ in range(n_tables)]
    # Power-on threshold (``predictor.threshold`` is live TC state the
    # reference run mutates; the kernel starts from reset like every
    # other table above).
    threshold = n_tables
    threshold_counter = 0
    takens = arrays.takens.tolist()

    predictions = np.empty(n, dtype=bool)
    high = np.empty(n, dtype=bool)
    for t in range(n):
        total = 0
        for table in range(n_tables):
            total += tables[table][plane_lists[table][t]]
        total = 2 * total + n_tables
        prediction = total >= 0
        predictions[t] = prediction
        magnitude = total if total >= 0 else -total
        # Assess happens between predict and train: the threshold this
        # branch's confidence is judged against is the pre-update one.
        high[t] = magnitude >= threshold
        taken = takens[t] == 1
        mispredicted = prediction != taken
        if mispredicted or magnitude < threshold:
            for table in range(n_tables):
                index = plane_lists[table][t]
                counter = tables[table][index]
                if taken:
                    if counter < ctr_max:
                        tables[table][index] = counter + 1
                elif counter > ctr_min:
                    tables[table][index] = counter - 1
        if mispredicted:
            threshold_counter += 1
            if threshold_counter >= 4:
                threshold_counter = 0
                threshold += 1
        elif magnitude < threshold:
            threshold_counter -= 1
            if threshold_counter <= -4:
                threshold_counter = 0
                if threshold > 1:
                    threshold -= 1
    return predictions, high
