"""Vectorized batch simulation backend (``backend="fast"``).

Drop-in, bit-for-bit equivalents of the reference engine for
the whole model zoo — bimodal/gshare/local predictors with the
JRS-family binary confidence counters, the full TAGE family (every
preset/automaton) with the paper's multi-class observation estimator
and the §6.2 adaptive saturation controller, and the sum-based
perceptron/O-GEHL predictors with their storage-free self-confidence
estimators — built on five layers:

* :mod:`repro.sim.fast.arrays` — trace pre-materialization plus
  vectorized (global and per-entry segmented) history windows and index
  folding;
* :mod:`repro.sim.fast.scan` — exact clamp-add segmented prefix scans
  over counter tables, processed in bounded chunks;
* :mod:`repro.sim.fast.planes` — precomputed TAGE index/tag planes
  (the folded-history arithmetic, computed with NumPy over a whole
  trace or one chunk of it), plus a memmap-backed on-disk cache;
* :mod:`repro.sim.fast.tage_core` — the numpy-free TAGE core: the
  lean sequential kernel over a caller-owned, resumable state block
  (with the in-kernel §6.2 feedback loop), the batch plane builder
  that carries its history across calls, and the resumable cell the
  serving layer steps tenants on;
* :mod:`repro.sim.fast.tage` — whole-trace TAGE runs on that kernel,
  streaming the planes in chunks (with per-branch observation streams
  for the apps layer);
* :mod:`repro.sim.fast.gehl` — the plane-fed dot-product kernels for
  the sum-based predictors and their self-confidence signals;
* :mod:`repro.sim.fast.compiled` — the embedded-C build of the
  sequential TAGE, TAGE batch-plane, O-GEHL, perceptron and
  counter-scan kernels, bit-identical to the pure kernels in
  :mod:`~repro.sim.fast.tage_core`,
  :mod:`~repro.sim.fast.gehl` and :mod:`~repro.sim.fast.scan` and used
  whenever a C compiler is present (``REPRO_COMPILED_PROVIDER`` pins
  ``cext`` or ``none``);
* :mod:`repro.sim.fast.lockstep` — multi-cell lockstep batching:
  ablation cells sharing one trace's planes advance together over
  each chunk of planes, built once;
* :mod:`repro.sim.fast.engine` — the ``simulate_fast`` /
  ``simulate_binary_fast`` entry points assembling
  :class:`~repro.sim.engine.SimulationResult` breakdowns, plus
  :func:`~repro.sim.fast.engine.cell_capability`, the fast backend's
  answer to the :meth:`repro.sim.backends.Backend.capability` query.

Unsupported configurations (subclasses of supported component types,
>62-bit gshare/perceptron/local/JRS/path history windows) raise
:class:`~repro.sim.backends.FastBackendUnsupported`; the ``backend=``
dispatch in :mod:`repro.sim.engine` turns that into a warning plus a
reference-engine fallback.  Equivalence with the reference engine is
enforced by ``tests/equivalence/`` and the golden fixtures under
``tests/golden/``; the wall-clock wins are tracked by
``benchmarks/test_bench_fast_engine.py``,
``benchmarks/test_bench_tage_fast.py`` and
``benchmarks/test_bench_adaptive_fast.py``.

Every layer but :mod:`~repro.sim.fast.compiled` and
:mod:`~repro.sim.fast.tage_core` requires NumPy.  The names below are
re-exported lazily (module ``__getattr__``), so importing the package —
or its two numpy-free modules, which the serving layer steps tenants
on — never loads NumPy; import the rest through
:func:`repro.sim.backends.load_fast_engine` to get a clean
``FastBackendUnsupported`` instead of an ``ImportError`` when it is
missing.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".arrays": ("TraceArrays", "history_windows", "segmented_history_windows",
                "fold_windows", "folded_history_series"),
    ".engine": ("simulate_fast", "simulate_binary_fast", "cell_capability",
                "vectorized_assessments", "vectorized_predictions",
                "prediction_stream_key"),
    ".tage": ("simulate_tage_fast", "tage_fast_predictions",
              "observe_tage_fast"),
    ".gehl": ("perceptron_fast_run", "ogehl_fast_run"),
    ".lockstep": ("LockstepCell", "simulate_tage_lockstep"),
    ".compiled": ("active_provider", "resolve_tage_kernel",
                  "resolve_ogehl_kernel"),
    ".planes": ("PlaneCache", "TagePlanes", "compute_planes", "plane_geometry",
                "default_planes_dir"),
    ".scan": ("CounterTable", "scanned_counters", "DEFAULT_CHUNK_SIZE"),
    ".tage_core": ("ResumableTageCell",),
})
