"""Fast TAGE engine: precomputed planes + a lean sequential kernel.

The reference :class:`~repro.predictors.tage.predictor.TagePredictor`
spends almost all of its per-branch time on index/tag arithmetic: every
branch recomputes M component indices and tags (folded-history xors,
path folding) and advances 3M folded-history registers.  All of that
depends only on the PC and the *resolved* outcome/path histories, so
:mod:`repro.sim.fast.planes` precomputes it for the whole trace with
vectorized NumPy.  What remains genuinely sequential — provider/altpred
selection, counter and useful-counter updates, allocation and the
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
whole-trace planes.  :func:`_run_batch` runs each cell over a freshly
powered-on state block, through the C build in
:mod:`repro.sim.fast.compiled` whenever it resolves and the pure kernel
otherwise.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.sim.backends import FastBackendUnsupported
from repro.sim.engine import SimulationResult, class_breakdown
from repro.sim.fast import compiled
from repro.sim.fast.arrays import TraceArrays
from repro.sim.fast.planes import (
    PlaneCache,
    TagePlanes,
    compute_planes,
    plane_geometry,
)
from repro.sim.fast.tage_core import (
    _kernel,
    cell_counts,
    cell_inputs,
    cell_params,
    power_on,
)

__all__ = [
    "simulate_tage_fast",
    "tage_fast_predictions",
    "observe_tage_fast",
    "resolve_planes",
]


def resolve_planes(
    arrays: TraceArrays,
    config,
    materialization: "PlaneCache | str | Path | None" = None,
    planes: TagePlanes | None = None,
) -> TagePlanes:
    """The index/tag planes for one trace × config, from the fastest source.

    Precedence: an explicitly supplied ``planes`` object (validated
    against the config's geometry), then the materialization cache
    (a :class:`PlaneCache` or a directory for one), then a fresh
    in-memory computation.
    """
    geometry = plane_geometry(config)
    if planes is not None:
        if planes.geometry != geometry or len(planes) != len(arrays):
            raise ValueError("supplied planes do not match this trace/configuration")
        return planes
    if materialization is None:
        return compute_planes(arrays, geometry)
    cache = (
        materialization
        if isinstance(materialization, PlaneCache)
        else PlaneCache(materialization)
    )
    return cache.load_or_compute(arrays, geometry)


def _run_batch(planes: TagePlanes, cells, want_predictions,
               want_classes: bool):
    """Run a batch of independent TAGE cells over one shared plane set.

    ``cells`` is a list of ``(config, estimator_window, max_strength,
    warmup, initial_k, controller_params)`` tuples, every config with
    the plane geometry of ``planes``; ``want_predictions`` holds one
    flag per cell.  Returns one ``(mispredictions, per-class
    predictions, per-class mispredictions, predictions, class codes,
    final sat-prob log2)`` tuple per cell, in order; the per-branch
    predictions (bool) and class codes (uint8) are arrays where
    requested and None otherwise.

    Each cell runs from its own freshly powered-on state block, one
    kernel call over the whole trace, so at most one cell's tables are
    live at a time.
    """
    kernel = compiled.resolve_tage_kernel()
    n = len(planes)
    if kernel is None:
        rows = planes.data[1:].tolist()
    else:
        rows = np.ascontiguousarray(planes.data[1:], dtype=np.int64)
    results = []
    for cell, wants in zip(cells, want_predictions, strict=True):
        iparams, fparams = cell_params(*cell)
        state = power_on(iparams)
        if kernel is None:
            predictions, classes = _kernel(
                rows, iparams, fparams, state, wants, want_classes
            )
            if predictions is not None:
                predictions = np.array(predictions, dtype=bool)
            if classes is not None:
                classes = np.array(classes, dtype=np.uint8)
        else:
            predictions = np.zeros(n, dtype=np.uint8) if wants else None
            classes = np.zeros(n, dtype=np.uint8) if want_classes else None
            kernel(rows, n, iparams, fparams, state, predictions, classes)
            if predictions is not None:
                predictions = predictions.view(bool)
        mispredictions, pred_counts, misp_counts, final_k = cell_counts(state)
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
    materialization: "PlaneCache | str | Path | None" = None,
    planes: TagePlanes | None = None,
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
    arrays = TraceArrays.from_trace(trace)
    resolved = resolve_planes(arrays, predictor.config, materialization, planes)
    (cell_result,) = _run_batch(resolved, [cell], [False], False)
    return _assemble_result(trace, predictor, estimator, controller, cell_result)


def tage_fast_predictions(
    arrays: TraceArrays,
    predictor,
    planes: TagePlanes | None = None,
) -> np.ndarray:
    """Per-branch TAGE predictions over a whole trace (bool array).

    Feeds the vectorized JRS-family assessment stage of
    :func:`repro.sim.fast.engine.simulate_binary_fast`; ``planes``
    (this trace's, for the predictor's geometry) skips their
    computation.
    """
    cell = cell_inputs(predictor, None, None, 0)
    resolved = resolve_planes(arrays, predictor.config, planes=planes)
    (cell_result,) = _run_batch(resolved, [cell], [True], False)
    return cell_result[3]


def observe_tage_fast(
    trace,
    predictor,
    estimator,
    planes: TagePlanes | None = None,
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
    arrays = TraceArrays.from_trace(trace)
    resolved = resolve_planes(arrays, predictor.config, planes=planes)
    (cell_result,) = _run_batch(resolved, [cell], [True], True)
    return cell_result[3].tolist(), cell_result[4].tolist()
