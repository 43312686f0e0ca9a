"""Vectorized batch simulation backend (``backend="fast"``).

Drop-in, bit-for-bit equivalents of the reference per-branch loops for
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
  (the folded-history arithmetic, computed trace-wide with NumPy) and
  their memmap-backed on-disk materialization cache;
* :mod:`repro.sim.fast.tage` — the lean sequential TAGE kernel over
  packed structure-of-arrays table state (with the in-kernel §6.2
  feedback loop and per-branch observation streams for the apps layer);
* :mod:`repro.sim.fast.gehl` — the plane-fed dot-product kernels for
  the sum-based predictors and their self-confidence signals;
* :mod:`repro.sim.fast.compiled` — the embedded-C build of the
  sequential TAGE/O-GEHL kernels, bit-identical to the pure loops in
  :mod:`~repro.sim.fast.tage`/:mod:`~repro.sim.fast.gehl` and used
  whenever a C compiler is present (``REPRO_COMPILED_PROVIDER`` pins
  ``cext`` or ``none``);
* :mod:`repro.sim.fast.lockstep` — multi-cell lockstep batching:
  ablation cells sharing one trace's planes advance through a single
  batched kernel pass;
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

Requires NumPy; import this module through
:func:`repro.sim.backends.load_fast_engine` to get a clean
``FastBackendUnsupported`` instead of an ``ImportError`` when it is
missing.
"""

from repro.sim.fast.arrays import (
    TraceArrays,
    fold_windows,
    history_windows,
    segmented_history_windows,
)
from repro.sim.fast.compiled import (
    active_provider,
    resolve_ogehl_kernel,
    resolve_tage_kernel,
)
from repro.sim.fast.engine import (
    cell_capability,
    simulate_binary_fast,
    simulate_fast,
    vectorized_assessments,
    vectorized_predictions,
)
from repro.sim.fast.gehl import ogehl_fast_run, perceptron_fast_run
from repro.sim.fast.lockstep import LockstepCell, simulate_tage_lockstep
from repro.sim.fast.planes import (
    PlaneCache,
    TagePlanes,
    compute_planes,
    default_planes_dir,
    plane_geometry,
)
from repro.sim.fast.scan import DEFAULT_CHUNK_SIZE, CounterTable, scanned_counters
from repro.sim.fast.tage import (
    observe_tage_fast,
    simulate_tage_fast,
    tage_fast_predictions,
)

__all__ = [
    "TraceArrays",
    "history_windows",
    "segmented_history_windows",
    "fold_windows",
    "simulate_fast",
    "simulate_binary_fast",
    "simulate_tage_fast",
    "tage_fast_predictions",
    "observe_tage_fast",
    "perceptron_fast_run",
    "ogehl_fast_run",
    "LockstepCell",
    "simulate_tage_lockstep",
    "cell_capability",
    "active_provider",
    "resolve_tage_kernel",
    "resolve_ogehl_kernel",
    "PlaneCache",
    "TagePlanes",
    "compute_planes",
    "plane_geometry",
    "default_planes_dir",
    "CounterTable",
    "scanned_counters",
    "DEFAULT_CHUNK_SIZE",
]
