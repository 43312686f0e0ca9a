"""Lockstep multi-cell TAGE simulation over one shared plane set.

An ablation sweep typically crosses one trace with many TAGE
configurations that differ only in *kernel* knobs — automaton,
saturation probability, counter widths, allocation policy, seeds,
estimator window, §6.2 controller parameters — while sharing the plane
geometry ``(log_bimodal, component geometries)`` that determines the
precomputed index/tag planes.  Running those cells as independent jobs
re-computes the same planes once per cell; running them *in lockstep*
builds each chunk of planes once and advances every cell over it, each
kernel call resuming from the cell's own state block — with the C
build, the multiplicative win of compiled × batched, in one chunk of
plane memory.

Cells never interact — each owns its table state — so a lockstep batch
is bit-identical to the same cells run independently (enforced by
``tests/equivalence/test_lockstep.py``).  Every cell without a §6.2
controller also *publishes* its per-branch predictions on the trace's
:class:`~repro.sim.fast.arrays.TraceArrays`, where a later binary
JRS-family cell of the same TAGE configuration reads them instead of
re-running the kernel.  The sweep executor uses this
module to fuse grouped fast-backend jobs
(:mod:`repro.sweep.executor`); it is equally usable directly for
ad-hoc ablation grids.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import SimulationResult
from repro.sim.fast.arrays import TraceArrays
from repro.sim.fast.planes import plane_geometry
from repro.sim.fast.engine import prediction_stream_key
from repro.sim.fast.tage import _assemble_result, _run_batch
from repro.sim.fast.tage_core import cell_inputs

__all__ = ["LockstepCell", "simulate_tage_lockstep", "lockstep_geometry"]


@dataclass(frozen=True)
class LockstepCell:
    """One ablation cell of a lockstep batch: a TAGE predictor with an
    optional §5 observation estimator and §6.2 adaptive controller,
    plus the warmup split — exactly the knobs of
    :func:`~repro.sim.fast.tage.simulate_tage_fast`."""

    predictor: object
    estimator: object | None = None
    controller: object | None = None
    warmup_branches: int = 0


def lockstep_geometry(cell: LockstepCell) -> tuple:
    """The plane-geometry key a cell must share to join a batch."""
    return plane_geometry(cell.predictor.config)


def simulate_tage_lockstep(
    trace,
    cells: "list[LockstepCell]",
) -> "list[SimulationResult]":
    """Simulate every cell over ``trace`` in one batched kernel pass.

    All cells must share one plane geometry (their configs may differ
    in any kernel-level knob).  Returns one
    :class:`~repro.sim.engine.SimulationResult` per cell, in order,
    each bit-identical to an independent
    :func:`~repro.sim.fast.tage.simulate_tage_fast` run of that cell.
    Each cell without a §6.2 controller leaves its prediction stream in
    the trace's :meth:`~repro.sim.fast.arrays.TraceArrays.derived` cache
    under :func:`~repro.sim.fast.engine.prediction_stream_key`, for as
    long as the trace stays materialized; a controller moves the
    saturation probability and with it the stream, so a controlled cell
    publishes nothing.

    Raises:
        FastBackendUnsupported: for cells outside the kernel's family.
        ValueError: when the cells' plane geometries diverge.
    """
    if not cells:
        return []
    prepared = [
        cell_inputs(cell.predictor, cell.estimator, cell.controller,
                    cell.warmup_branches)
        for cell in cells
    ]
    geometry = lockstep_geometry(cells[0])
    for position, cell in enumerate(cells[1:], start=1):
        if lockstep_geometry(cell) != geometry:
            raise ValueError(
                f"lockstep cell {position} has plane geometry "
                f"{lockstep_geometry(cell)!r}, expected {geometry!r} — "
                "cells of one batch must share their trace planes"
            )
    arrays = TraceArrays.from_trace(trace)
    publish = [cell.controller is None for cell in cells]
    batch = _run_batch(arrays, geometry, prepared, publish, False)
    for cell, cell_result in zip(cells, batch):
        if cell.controller is None:
            arrays.derived(prediction_stream_key(cell.predictor),
                           lambda: cell_result[3])
    return [
        _assemble_result(trace, cell.predictor, cell.estimator,
                         cell.controller, cell_result)
        for cell, cell_result in zip(cells, batch)
    ]
