"""Shared per-trace streams bench (not a paper experiment).

The paper grades one predictor's prediction stream with several
estimators (§2, §5, Tables 2-3): the storage-free TAGE classes, JRS and
the perceptron/O-GEHL self-confidence.  The fast backend computes each
trace-derived stream once per materialized trace and hands it to every
cell that reads it (:meth:`repro.sim.fast.arrays.TraceArrays.derived`):
the JRS base index of one table geometry, each predictor
configuration's prediction stream (published by a lockstep TAGE×``tage``
cell for the TAGE×``jrs`` member of its unit), and a sum-based
predictor's (predictions, self-confidence) pair.

Workload: the ``sweep-replay`` grid — TAGE-16K/64K in the standard and
probabilistic automata, gshare, perceptron and O-GEHL × every
compatible estimator among ``tage``/``jrs``/``self`` over four
100k-branch profiles: 52 jobs in 28 lockstep-planned units, run in
process.  It runs once with shared streams and once with every
``derived`` call building its stream afresh (no stream outlives the
cell that built it — the cost before sharing), asserts the two give
identical result rows, and emits
``benchmarks/records/BENCH_shared_streams.json`` with a ``layers``
split of both legs: TAGE planes (whichever builder runs), the TAGE
kernel, the perceptron/O-GEHL passes (the C sum walk or the NumPy
kernels), the JRS index build (NumPy leg only) and the counter tables
— the NumPy scans or the C counter walk (the remainder is trace
arrays, predictor set-up and result assembly).

The compared ``metric`` is ``relative_speed``: the seconds of the
calibration loop (``conftest.calibrate``, best of :data:`REPEATS`) over
the shared seconds, so it rises whenever the shared path gets faster.
``speedup`` (unshared over shared) is recorded as information only:
both legs build planes, so cheaper planes lower it.
"""

from __future__ import annotations

import functools
import time

import pytest

np = pytest.importorskip("numpy")

from conftest import (  # noqa: F401
    calibrate,
    emit,
    patch_plane_builders,
    record,
    run_once,
)

from repro.sim.fast import arrays as fast_arrays
from repro.sim.fast import compiled, engine, gehl, lockstep, tage, vectorized
from repro.sim.fast.arrays import TraceArrays
from repro.sim.runner import get_trace
from repro.sweep.executor import execute_work, plan_lockstep
from repro.sweep.grid import expand
from repro.sweep.result import ResultTable
from repro.sweep.spec import EstimatorSpec, ExperimentSpec, LockstepBatch, PredictorSpec

#: The ``sweep-replay`` grid.
PROFILES = ("INT-1", "FP-2", "MM-3", "SERV-4")
BRANCHES = 100_000
PREDICTORS = ("tage-16K", "tage-64K", "tage-16K-prob", "tage-64K-prob",
              "gshare", "perceptron", "ogehl")
ESTIMATORS = ("tage", "jrs", "self")
#: Repetitions per leg; each leg reports its fastest.
REPEATS = 3
#: Shared streams must beat per-cell recomputation by at least this factor.
SPEEDUP_TARGET = 1.1

LAYERS = ("planes", "tage", "gehl", "jrs_index", "scans")


class _LayerTimer:
    """Accumulates seconds per layer by wrapping each layer's entry
    points wherever the sweep and fast engine look them up."""

    def __init__(self, monkeypatch) -> None:
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._nested = 0.0
        patch_plane_builders(monkeypatch,
                             lambda build: self._timed("planes", build))
        timed_kernel = self._timed("tage", tage._run_batch)
        for module in (tage, lockstep):
            monkeypatch.setattr(module, "_run_batch", timed_kernel)
        # The sum predictors' passes (the C sum walk or the NumPy
        # kernels), looked up in gehl by its per-trace memo.
        for name in ("perceptron_fast_run", "ogehl_fast_run"):
            monkeypatch.setattr(gehl, name,
                                self._timed("gehl", getattr(gehl, name)))
        monkeypatch.setattr(vectorized, "_jrs_index",
                            self._timed("jrs_index", vectorized._jrs_index))
        # Counter tables: the NumPy scans, or the C counter walk.
        monkeypatch.setattr(vectorized, "scanned_counters",
                            self._timed("scans", vectorized.scanned_counters))
        monkeypatch.setattr(engine, "walk", self._timed("scans", engine.walk))

    def reset(self) -> None:
        for layer in LAYERS:
            self.seconds[layer] = 0.0
            self.calls[layer] = 0

    def _timed(self, layer, fn):
        """``fn`` charging its self time to ``layer``: the time of timed
        calls nested inside it (the plane chunks a kernel pass builds)
        goes to their own layers."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self._nested = self._nested, 0.0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[layer] += elapsed - self._nested
                self.calls[layer] += 1
                self._nested = outer + elapsed
        return wrapper

    def split(self, total: float) -> dict:
        layers = {
            layer: {"seconds": round(self.seconds[layer], 4),
                    "calls": self.calls[layer]}
            for layer in LAYERS
        }
        layers["other"] = {
            "seconds": round(total - sum(self.seconds.values()), 4)
        }
        return layers


def _units():
    spec = ExperimentSpec(
        name="bench/shared-streams",
        predictors=tuple(PredictorSpec.parse(token) for token in PREDICTORS),
        estimators=tuple(EstimatorSpec.of(kind) for kind in ESTIMATORS),
        traces=PROFILES,
        n_branches=BRANCHES,
        backend="fast",
    )
    jobs = expand(spec).jobs
    return jobs, [unit for _, unit in plan_lockstep(list(enumerate(jobs)))]


def _run(units) -> list[str]:
    """Every unit in plan order, in process; the grid's TSV rows."""
    results = []
    for unit in units:
        outcome = execute_work(unit)
        results.extend(outcome if isinstance(unit, LockstepBatch) else [outcome])
    return ResultTable(results).to_tsv().splitlines()


def _unshared(self, key, build):
    """:meth:`TraceArrays.derived` with nothing kept: every cell builds
    each stream it reads."""
    value = build()
    return (tuple(map(fast_arrays._frozen, value)) if isinstance(value, tuple)
            else fast_arrays._frozen(value))


def _best_of(units, timer: _LayerTimer):
    """The fastest of :data:`REPEATS` runs: (rows, seconds, layers)."""
    best = None
    for _ in range(REPEATS):
        timer.reset()
        # Each run starts with no trace materialized.
        fast_arrays._LAST_MATERIALIZED = None
        start = time.perf_counter()
        rows = _run(units)
        seconds = time.perf_counter() - start
        if best is None or seconds < best[1]:
            best = (rows, seconds, timer.split(seconds))
    return best


def test_shared_streams_wallclock(run_once, monkeypatch):
    jobs, units = _units()
    assert len(jobs) == 52 and len(units) == 28

    # Synthesize the traces and load the kernels outside the timings.
    for profile in PROFILES:
        get_trace(profile, BRANCHES)
    execute_work(units[0])

    timer = _LayerTimer(monkeypatch)
    calibration = min(calibrate() for _ in range(REPEATS))
    shared_rows, shared_seconds, shared_layers = run_once(
        lambda: _best_of(units, timer)
    )
    with monkeypatch.context() as patch:
        patch.setattr(TraceArrays, "derived", _unshared)
        unshared_rows, unshared_seconds, unshared_layers = _best_of(units, timer)

    # Sharing is invisible in the results: identical rows.
    assert shared_rows == unshared_rows
    # Shared: one batched TAGE pass per unit (the jrs members read the
    # published streams), one run per sum predictor per trace, and on
    # the NumPy leg one JRS index per trace (the C leg's counter walk
    # builds none).
    assert shared_layers["tage"]["calls"] == 2 * len(PROFILES)
    jrs_indices = 0 if compiled.resolve_counter_walk_kernel() else len(PROFILES)
    assert shared_layers["jrs_index"]["calls"] == jrs_indices
    assert shared_layers["gehl"]["calls"] == 2 * len(PROFILES)

    speedup = unshared_seconds / max(shared_seconds, 1e-9)
    relative_speed = calibration / shared_seconds
    payload = {
        "bench": "shared_streams",
        "profiles": list(PROFILES),
        "branches_per_trace": BRANCHES,
        "predictors": list(PREDICTORS),
        "estimators": list(ESTIMATORS),
        "n_jobs": len(jobs),
        "n_units": len(units),
        "provider": compiled.active_provider(),
        "unshared_seconds": round(unshared_seconds, 4),
        "shared_seconds": round(shared_seconds, 4),
        "calibration_s": round(calibration, 4),
        "metric": "relative_speed",
        "relative_speed": round(relative_speed, 4),
        "speedup": round(speedup, 2),
        "speedup_target": SPEEDUP_TARGET,
        "layers": {"unshared": unshared_layers, "shared": shared_layers},
    }
    record("shared_streams", payload)

    lines = [
        f"shared-streams bench: {len(jobs)} jobs ({', '.join(PREDICTORS)} "
        f"x {', '.join(ESTIMATORS)}) over {len(PROFILES)} x {BRANCHES} "
        f"branches, {len(units)} units, provider = "
        f"{compiled.active_provider() or 'none'}",
    ]
    for leg, seconds, layers in (
        ("unshared", unshared_seconds, unshared_layers),
        ("shared", shared_seconds, shared_layers),
    ):
        split = ", ".join(
            f"{layer} {layers[layer]['seconds']:.3f}s"
            for layer in (*LAYERS, "other")
        )
        lines.append(f"{leg:8s} {seconds:.3f}s ({split})")
    lines.append(f"speedup: {speedup:.2f}x (target >= {SPEEDUP_TARGET:g}x); "
                 f"relative speed {relative_speed:.4f} "
                 f"(calibration {calibration:.3f}s)")
    emit("shared_streams", "\n".join(lines))

    assert speedup >= SPEEDUP_TARGET, (
        f"shared streams only {speedup:.2f}x faster than per-cell "
        f"recomputation ({unshared_seconds:.3f}s -> {shared_seconds:.3f}s)"
    )
