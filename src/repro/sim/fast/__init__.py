"""Batch simulation backend (``backend="fast"``).

Drop-in, bit-for-bit equivalents of the reference engine for the whole
model zoo — bimodal/gshare/local predictors with the JRS-family binary
confidence counters, the full TAGE family (every preset/automaton) with
the paper's multi-class observation estimator and the §6.2 adaptive
saturation controller, and the sum-based perceptron/O-GEHL predictors
with their storage-free self-confidence estimators.

Every cell runs on one of two legs (:mod:`~repro.sim.fast.capability`):

* the **C leg** — every supported cell when the C build resolves:
  TAGE, bimodal/gshare/local and perceptron/O-GEHL, with or without a
  JRS/eJRS table or self-confidence.  These read a trace's packed
  columns and run entirely in the compiled kernels; no process on this
  leg imports NumPy;
* the **NumPy leg** — every cell when no C compiler is present (or
  ``REPRO_COMPILED_PROVIDER=none`` pins it).  NumPy is imported only
  where this leg runs.

The layers:

* :mod:`repro.sim.fast.arrays` — :class:`TraceArrays`, the one
  per-trace object: the packed columns, lazily materialized NumPy
  views, and the derived-stream memo the cells of one trace share;
* :mod:`repro.sim.fast.capability` — the NumPy-free control plane:
  the support predicate behind the backend's capability query, the
  leg choice and the stream keys;
* :mod:`repro.sim.fast.compiled` — the embedded-C build of the TAGE
  kernel and plane builder, the counter walk, the sum walk and trace
  synthesis, used whenever a C compiler is present
  (``REPRO_COMPILED_PROVIDER`` pins ``cext`` or ``none``);
* :mod:`repro.sim.fast.tage_core` — the NumPy-free TAGE core: the pure
  kernel over a caller-owned, resumable state block, the carried-history
  plane builder and the resumable cell the serving layer steps tenants
  on;
* :mod:`repro.sim.fast.counter_core` — the NumPy-free counter family:
  the parameter row and caller-owned state block of the C counter walk
  (bimodal/gshare/local predictions, JRS/eJRS assessments);
* :mod:`repro.sim.fast.sum_core` — the NumPy-free sum-based
  predictors: the parameter row and caller-owned state block of the C
  sum walk (perceptron/O-GEHL predictions and self-confidence) and the
  byte-column reduction of its outputs;
* :mod:`repro.sim.fast.gehl` — the perceptron/O-GEHL entry points on
  both legs and the per-trace sharing of their streams;
* :mod:`repro.sim.fast.tage` — whole-trace TAGE runs on that kernel,
  streaming the planes in chunks (with per-branch observation streams
  for the apps layer);
* :mod:`repro.sim.fast.lockstep` — multi-cell lockstep batching:
  ablation cells sharing one trace's planes advance together over each
  chunk of planes, built once;
* :mod:`repro.sim.fast.engine` — the ``simulate_fast`` /
  ``simulate_binary_fast`` entry points assembling
  :class:`~repro.sim.engine.SimulationResult` breakdowns;
* NumPy leg: :mod:`repro.sim.fast.windows` (vectorized history windows
  and folds), :mod:`repro.sim.fast.scan` (exact clamp-add segmented
  prefix scans), :mod:`repro.sim.fast.planes` (closed-form TAGE
  index/tag planes and the memmap plane store), the lockstep
  perceptron and plane-fed O-GEHL loop in :mod:`repro.sim.fast.gehl`
  and :mod:`repro.sim.fast.vectorized` (the counter family's scans).

Unsupported configurations (subclasses of supported component types,
>62-bit gshare/perceptron/local/JRS/path history windows, a NumPy-leg
cell without NumPy) raise
:class:`~repro.sim.backends.FastBackendUnsupported`; the ``backend=``
dispatch in :mod:`repro.sim.engine` turns that into a warning plus a
reference-engine fallback.  Equivalence with the reference engine is
enforced by ``tests/equivalence/`` and the golden fixtures under
``tests/golden/``.

The names below are re-exported lazily (module ``__getattr__``), so
importing the package loads only the module a name lives in.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".arrays": ("TraceArrays", "DEFAULT_CHUNK_SIZE"),
    ".windows": ("history_windows", "segmented_history_windows",
                 "fold_windows", "folded_history_series"),
    ".engine": ("simulate_fast", "simulate_binary_fast"),
    ".capability": ("cell_capability", "prediction_stream_key"),
    ".vectorized": ("vectorized_assessments", "vectorized_predictions"),
    ".tage": ("simulate_tage_fast", "tage_fast_predictions",
              "observe_tage_fast"),
    ".gehl": ("perceptron_fast_run", "ogehl_fast_run"),
    ".lockstep": ("LockstepCell", "simulate_tage_lockstep"),
    ".compiled": ("active_provider", "resolve_tage_kernel",
                  "resolve_sum_walk_kernel"),
    ".planes": ("PlaneCache", "TagePlanes", "compute_planes",
                "default_planes_dir"),
    ".scan": ("CounterTable", "scanned_counters"),
    ".tage_core": ("ResumableTageCell", "plane_geometry"),
})
