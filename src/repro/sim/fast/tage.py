"""Fast TAGE engine: precomputed planes + a lean sequential kernel.

The reference :class:`~repro.predictors.tage.predictor.TagePredictor`
spends almost all of its per-branch time on index/tag arithmetic: every
branch recomputes M component indices and tags (folded-history xors,
path folding) and advances 3M folded-history registers.  All of that
depends only on the PC and the *resolved* outcome/path histories, so
it is computed ahead of the kernel, as plane rows: by the C
``tage-planes`` builder from a carried history when the C build
resolves, else by :mod:`repro.sim.fast.planes`' vectorized NumPy.
What remains genuinely sequential — provider/altpred selection,
counter and useful-counter updates, allocation and the
``USE_ALT_ON_NA`` monitor all feed back through table state — runs as
one tight Python loop over packed structure-of-arrays table state
(per-component ``ctr``/``tag``/``u`` int lists) with zero per-step
object allocation, attribute access or dict lookups.

Bit-for-bit equivalence with the reference engine (enforced by
``tests/equivalence/`` and ``tests/golden/``) includes every stateful
detail: the XorShift32 allocation stream, the §6 probabilistic-
saturation LFSR draws (count and order), graceful u-counter aging every
``u_reset_period`` branches, and the §5 observation estimator's
BIM-miss window.  The multi-class estimator costs nothing extra to
layer on top: it only *reads* the observation the kernel already has in
hand (provider, counter, bimodal state) — and the same holds for the
§6.2 adaptive saturation controller (a handful of integer counters fed
from the class the kernel just computed, adapting the live ``prob_k``
the LFSR gate reads) and for the per-branch observation streams the
apps layer replays (:func:`observe_tage_fast`).

The predictor and estimator instances are only read for configuration
and are left in their power-on state, like the rest of the fast backend.

The sequential kernel itself, its caller-owned state block and the
cell predicate live in the numpy-free :mod:`repro.sim.fast.tage_core`
(so the serving layer can step tenants on them); this module feeds it
offline traces.  :func:`_run_batch` streams a trace's planes in chunks
of :data:`PLANE_CHUNK` branches and advances every cell's own
powered-on state block over each chunk in turn, so plane memory stays
at one chunk however long the trace.  Both stages run through the C
build in :mod:`repro.sim.fast.compiled` whenever it resolves: its
carried-history plane builder (the one the serving layer steps
tenants with) and its kernel.  Otherwise NumPy builds each chunk over
a look-back window and the pure kernel runs it.
"""

from __future__ import annotations

import numpy as np

from repro.sim.backends import FastBackendUnsupported
from repro.sim.engine import SimulationResult, class_breakdown
from repro.sim.fast import compiled
from repro.sim.fast.arrays import TraceArrays
from repro.sim.fast.planes import compute_planes, plane_geometry
from repro.sim.fast.tage_core import (
    _kernel,
    cell_counts,
    cell_inputs,
    cell_params,
    history_power_on,
    plane_params,
    power_on,
)

__all__ = [
    "simulate_tage_fast",
    "tage_fast_predictions",
    "observe_tage_fast",
]


#: Branches per plane chunk.  Offline TAGE runs build the index/tag
#: rows of this many branches at a time and advance every cell over
#: them, so plane memory stays at one chunk whatever the trace length.
#: About 16K measured fastest of 4K/16K/32K, because one
#: chunk's rows (and NumPy's temporaries) stay in cache; and not 16,384,
#: because the builder writes and the kernel reads a chunk's 2 + 2M rows
#: as parallel streams ``PLANE_CHUNK`` int64 apart, and a power-of-two
#: stride maps every stream onto the same cache sets (a 1M-branch
#: TAGE-64K lockstep pass took ~210 ms at 16,384 against ~150 ms at
#: 16,000 on a 2-core x86-64 box).
PLANE_CHUNK = 16_000


def _history_reach(geometry: tuple) -> int:
    """How many earlier branches one branch's plane row reads: the
    longest history length or path register of the geometry."""
    return max(max(length, path_bits) for *_, length, path_bits in geometry[1])


def _plane_chunks(arrays: TraceArrays, geometry: tuple):
    """The trace's kernel rows (the ``TagePlanes.data[1:]`` layout), one
    chunk of at most :data:`PLANE_CHUNK` branches at a time.

    Yields ``(start, rows)``, ``rows`` a C-contiguous int64 block.  When
    the C build resolves, its ``tage-planes`` builder writes each chunk
    from one carried history
    (:func:`~repro.sim.fast.tage_core.history_power_on`) that advances
    across the chunks, so no chunk reads back into the trace.  Without
    it each chunk goes through :func:`compute_planes` over a window that
    starts :func:`_history_reach` branches before the chunk, and that
    prefix is dropped: every folded index/tag value depends only on that
    many earlier outcomes and PCs.  Either way the rows equal the
    whole-trace planes byte for byte.
    """
    build = compiled.resolve_tage_planes_kernel()
    if build is not None:
        gparams = plane_params(geometry)
        history = history_power_on(gparams)
    reach = _history_reach(geometry)
    for start in range(0, len(arrays), PLANE_CHUNK):
        stop = min(start + PLANE_CHUNK, len(arrays))
        if build is not None:
            rows = np.empty((2 + 2 * len(geometry[1]), stop - start),
                            dtype=np.int64)
            build(stop - start, gparams, history,
                  arrays.pcs[start:stop].view(np.uint64),
                  arrays.takens[start:stop], rows)
        else:
            low = max(0, start - reach)
            window = TraceArrays(name=arrays.name, pcs=arrays.pcs[low:stop],
                                 takens=arrays.takens[low:stop])
            rows = np.ascontiguousarray(
                compute_planes(window, geometry).data[1:, start - low:])
        yield start, rows


def _run_batch(arrays: TraceArrays, geometry: tuple, cells, want_predictions,
               want_classes: bool):
    """Run a batch of independent TAGE cells over one trace's planes.

    ``cells`` is a list of ``(config, estimator_window, max_strength,
    warmup, initial_k, controller_params)`` tuples, every config with
    plane geometry ``geometry``; ``want_predictions`` holds one flag
    per cell.  Returns one ``(mispredictions, per-class predictions,
    per-class mispredictions, predictions, class codes, final sat-prob
    log2)`` tuple per cell, in order; the per-branch predictions (bool)
    and class codes (uint8) are whole-trace arrays where requested and
    None otherwise.

    The planes stream in chunks (:func:`_plane_chunks`): each chunk's
    rows are built once and every cell's kernel resumes over them from its own
    powered-on state block, so a cell's run is bit-identical to one
    uninterrupted pass while plane memory stays at one chunk.
    """
    kernel = compiled.resolve_tage_kernel()
    n = len(arrays)
    runs = []
    for cell, wants in zip(cells, want_predictions, strict=True):
        iparams, fparams = cell_params(*cell)
        runs.append((
            iparams, fparams, power_on(iparams),
            np.zeros(n, dtype=np.uint8) if wants else None,
            np.zeros(n, dtype=np.uint8) if want_classes else None,
        ))
    for start, rows in _plane_chunks(arrays, geometry):
        stop = start + rows.shape[1]
        if kernel is None:
            rows = rows.tolist()
        for iparams, fparams, state, predictions, classes in runs:
            if kernel is not None:
                kernel(rows, stop - start, iparams, fparams, state,
                       None if predictions is None else predictions[start:stop],
                       None if classes is None else classes[start:stop])
                continue
            chunk_predictions, chunk_classes = _kernel(
                rows, iparams, fparams, state,
                predictions is not None, classes is not None,
            )
            if predictions is not None:
                predictions[start:stop] = chunk_predictions
            if classes is not None:
                classes[start:stop] = chunk_classes
    results = []
    for _, _, state, predictions, classes in runs:
        mispredictions, pred_counts, misp_counts, final_k = cell_counts(state)
        if predictions is not None:
            predictions = predictions.view(bool)
        results.append((mispredictions, pred_counts, misp_counts,
                        predictions, classes, final_k))
    return results


def _assemble_result(trace, predictor, estimator, controller,
                     cell_result) -> SimulationResult:
    """One cell's :func:`_run_batch` output as a SimulationResult."""
    mispredictions, pred_counts, misp_counts, _, _, final_k = cell_result
    return SimulationResult(
        trace_name=trace.name,
        predictor_name=predictor.name,
        n_branches=len(trace),
        n_instructions=trace.total_instructions,
        mispredictions=mispredictions,
        storage_bits=predictor.storage_bits(),
        classes=(
            class_breakdown(pred_counts, misp_counts)
            if estimator is not None else None
        ),
        final_sat_prob_log2=final_k if controller is not None else None,
    )


def simulate_tage_fast(
    trace,
    predictor,
    estimator=None,
    controller=None,
    warmup_branches: int = 0,
) -> SimulationResult:
    """Fast-backend equivalent of :func:`repro.sim.engine.simulate` for
    TAGE, with the §5 observation estimator and the §6.2 adaptive
    saturation controller optionally attached.

    Raises:
        FastBackendUnsupported: for subclassed predictor/estimator/
            controller types, a controller steering a different
            predictor, or path histories beyond the packed window width.
    """
    cell = cell_inputs(predictor, estimator, controller, warmup_branches)
    (cell_result,) = _run_batch(TraceArrays.from_trace(trace),
                                plane_geometry(predictor.config),
                                [cell], [False], False)
    return _assemble_result(trace, predictor, estimator, controller, cell_result)


def tage_fast_predictions(arrays: TraceArrays, predictor) -> np.ndarray:
    """Per-branch TAGE predictions over a whole trace (bool array).

    Feeds the vectorized JRS-family assessment stage of
    :func:`repro.sim.fast.engine.simulate_binary_fast`.
    """
    cell = cell_inputs(predictor, None, None, 0)
    (cell_result,) = _run_batch(arrays, plane_geometry(predictor.config),
                                [cell], [True], False)
    return cell_result[3]


def observe_tage_fast(
    trace,
    predictor,
    estimator,
) -> tuple[list[bool], list[int]]:
    """Per-branch (predictions, observation class codes) of one trace.

    The code encoding is :data:`repro.confidence.classes.OBSERVATION_CLASS_CODES`;
    this is the fast producer behind
    :func:`repro.sim.observe.observe_trace` and therefore the apps layer.

    Raises:
        FastBackendUnsupported: for cells outside the kernel's family.
    """
    if estimator is None:
        raise FastBackendUnsupported(
            "observation streams need the TAGE observation estimator"
        )
    cell = cell_inputs(predictor, estimator, None, 0)
    (cell_result,) = _run_batch(TraceArrays.from_trace(trace),
                                plane_geometry(predictor.config),
                                [cell], [True], True)
    return cell_result[3].tolist(), cell_result[4].tolist()
