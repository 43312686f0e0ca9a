"""Trace-driven simulation and experiment harness.

* :mod:`repro.sim.engine` — the reference engine: the one per-branch
  step function :func:`~repro.sim.engine.step_batch` and its drivers
  :func:`simulate` (TAGE + multi-class confidence observation) and
  :func:`simulate_binary` (any predictor + a binary high/low estimator).
* :mod:`repro.sim.backends` — the ``"reference"`` / ``"fast"`` backend
  selector shared by the engine, the sweep layer and the CLI.
* :mod:`repro.sim.fast` — the batch backend (C kernels, and NumPy
  for the cells its C leg does not cover), bit-for-bit equivalent to
  the reference engine where supported.
* :mod:`repro.sim.observe` — per-branch observation streams (the apps
  layer's replay input), produced on either backend (``step_batch`` on
  the reference one).
* :mod:`repro.sim.cells` — the one cell factory
  (:func:`~repro.sim.cells.build_cell`) and the TAGE presets
  (:func:`build_predictor`); it loads neither the sweep broker nor the
  trace registry.
* :mod:`repro.sim.stats` — suite-level aggregation.
* :mod:`repro.sim.runner` — trace lookup and the one-trace run
  :func:`run_trace` (grids run through :func:`repro.sweep.run_sweep`).
* :mod:`repro.sim.report` — ASCII rendering of the paper's tables and
  figure series.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".backends": ("BACKENDS", "DEFAULT_BACKEND", "FastBackendFallbackWarning",
                  "FastBackendUnsupported", "validate_backend"),
    ".observe": ("ObservationStream", "observe_trace"),
    ".engine": ("SimulationResult", "simulate", "simulate_binary"),
    ".stats": ("SuiteSummary", "summarize"),
    ".cells": ("build_predictor",),
    ".report": ("render_table",),
    ".runner": ("run_trace",),
})
