"""Trace × plane-geometry unit bench (not a paper experiment).

The paper grades one TAGE prediction stream with its storage-free
classes (§5) and with JRS, so on one trace a TAGE×``tage`` cell and a
TAGE×``jrs`` cell need the same index/tag planes.  The sweep fuses
every fast TAGE job sharing (trace, length, plane geometry) into one
unit that computes the trace arrays once and streams each chunk of
planes through all its members
(:func:`repro.sweep.executor.execute_batch`).

Workload: TAGE-16K/64K in the standard and probabilistic automata ×
the ``tage``/``jrs``/``ejrs`` estimators over four 100k-branch
profiles (the ``sweep-replay`` shape): 48 jobs in 8 units.  It runs
once as fused units and once as one :func:`execute_job` per member
(planes computed per job), asserts the two give identical result
bytes, and emits ``benchmarks/records/BENCH_geometry_units.json`` with
a ``layers`` split of both legs (self time): trace arrays, planes
(whichever builder runs), the TAGE kernel and the JRS-family
assessments (the remainder is predictor set-up and result assembly).

The compared ``metric`` is ``relative_speed``: the seconds of the
calibration loop (``conftest.calibrate``, best of :data:`REPEATS`) over
the fused seconds, so it rises whenever the fused path gets faster.
``speedup`` (per-job over fused) is recorded as information only: both
legs build planes, so cheaper planes lower it.
"""

from __future__ import annotations

import functools
import pickle
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

from repro.sim.fast import compiled, engine, lockstep, tage
from repro.sim.fast.arrays import TraceArrays
from repro.sim.runner import get_trace
from repro.sweep.executor import execute_batch, execute_job, plan_lockstep
from repro.sweep.grid import expand
from repro.sweep.spec import EstimatorSpec, ExperimentSpec, LockstepBatch, PredictorSpec

#: The ``sweep-replay`` profiles and length.
PROFILES = ("INT-1", "FP-2", "MM-3", "SERV-4")
BRANCHES = 100_000
PREDICTORS = ("tage-16K", "tage-16K-prob", "tage-64K", "tage-64K-prob")
ESTIMATORS = ("tage", "jrs", "ejrs")
#: Repetitions per leg; each leg reports its fastest.
REPEATS = 3
#: Fused units must beat per-job execution by at least this factor.
SPEEDUP_TARGET = 1.5

LAYERS = ("trace_arrays", "planes", "kernel", "assessments")


class _LayerTimer:
    """Accumulates seconds per layer by wrapping each layer's entry
    points wherever the sweep and fast engine look them up."""

    def __init__(self, monkeypatch) -> None:
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._nested = 0.0
        from_trace = TraceArrays.from_trace
        timed_from_trace = self._timed("trace_arrays", from_trace)
        monkeypatch.setattr(TraceArrays, "from_trace", classmethod(
            lambda cls, trace: timed_from_trace(trace)))
        patch_plane_builders(monkeypatch,
                             lambda build: self._timed("planes", build))
        timed_kernel = self._timed("kernel", tage._run_batch)
        for module in (tage, lockstep):
            monkeypatch.setattr(module, "_run_batch", timed_kernel)
        monkeypatch.setattr(engine, "vectorized_assessments", self._timed(
            "assessments", engine.vectorized_assessments))

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


def _jobs():
    spec = ExperimentSpec(
        name="bench/geometry-units",
        predictors=tuple(PredictorSpec.parse(token) for token in PREDICTORS),
        estimators=tuple(EstimatorSpec.of(kind) for kind in ESTIMATORS),
        traces=PROFILES,
        n_branches=BRANCHES,
        warmup_branches=BRANCHES // 4,
        seed=1,
        backend="fast",
    )
    return expand(spec).jobs


def _identity(result) -> bytes:
    """A job's result bytes, without its wall-clock ``elapsed``."""
    return pickle.dumps((result.job, result.result, result.binary,
                         result.estimator_bits))


def _fused(units):
    results = []
    for unit in units:
        results.extend(execute_batch(unit))
    return results


def _per_job(jobs):
    return [execute_job(job) for job in jobs]


def _best_of(run, timer: _LayerTimer):
    """The fastest of :data:`REPEATS` runs: (results, seconds, layers)."""
    best = None
    for _ in range(REPEATS):
        timer.reset()
        start = time.perf_counter()
        results = run()
        seconds = time.perf_counter() - start
        if best is None or seconds < best[1]:
            best = (results, seconds, timer.split(seconds))
    return best


def test_geometry_units_wallclock(run_once, monkeypatch):
    jobs = _jobs()
    units = [unit for _, unit in plan_lockstep(list(enumerate(jobs)))]
    assert len(units) == len(PROFILES) * 2
    assert all(isinstance(unit, LockstepBatch) for unit in units)
    order = [job for unit in units for _, job in unit.members]

    # Synthesize the traces and load the kernels outside the timings.
    for profile in PROFILES:
        get_trace(profile, BRANCHES)
    execute_batch(units[0])

    timer = _LayerTimer(monkeypatch)
    per_job_results, per_job_seconds, per_job_layers = run_once(
        lambda: _best_of(lambda: _per_job(order), timer)
    )
    calibration = min(calibrate() for _ in range(REPEATS))
    fused_results, fused_seconds, fused_layers = _best_of(
        lambda: _fused(units), timer
    )

    # Fusion is invisible in the results: identical bytes per job.
    assert [_identity(r) for r in fused_results] == [
        _identity(r) for r in per_job_results
    ]

    speedup = per_job_seconds / max(fused_seconds, 1e-9)
    relative_speed = calibration / fused_seconds
    payload = {
        "bench": "geometry_units",
        "profiles": list(PROFILES),
        "branches_per_trace": BRANCHES,
        "predictors": list(PREDICTORS),
        "estimators": list(ESTIMATORS),
        "n_jobs": len(jobs),
        "n_units": len(units),
        "provider": compiled.active_provider(),
        "per_job_seconds": round(per_job_seconds, 4),
        "fused_seconds": round(fused_seconds, 4),
        "calibration_s": round(calibration, 4),
        "metric": "relative_speed",
        "relative_speed": round(relative_speed, 4),
        "speedup": round(speedup, 2),
        "speedup_target": SPEEDUP_TARGET,
        "layers": {"per_job": per_job_layers, "fused": fused_layers},
    }
    record("geometry_units", payload)

    lines = [
        f"geometry-unit bench: {len(jobs)} TAGE jobs ({', '.join(PREDICTORS)} "
        f"x {', '.join(ESTIMATORS)}) over {len(PROFILES)} x {BRANCHES} "
        f"branches, {len(units)} units, provider = "
        f"{compiled.active_provider() or 'none'}",
    ]
    for leg, seconds, layers in (("per-job", per_job_seconds, per_job_layers),
                                 ("fused", fused_seconds, fused_layers)):
        split = ", ".join(
            f"{layer} {layers[layer]['seconds']:.3f}s"
            for layer in (*LAYERS, "other")
        )
        lines.append(f"{leg:8s} {seconds:.3f}s ({split})")
    lines.append(f"speedup: {speedup:.2f}x (target >= {SPEEDUP_TARGET:g}x); "
                 f"relative speed {relative_speed:.4f} "
                 f"(calibration {calibration:.3f}s)")
    emit("geometry_units", "\n".join(lines))

    assert speedup >= SPEEDUP_TARGET, (
        f"fused geometry units only {speedup:.2f}x faster than per-job "
        f"execution ({per_job_seconds:.3f}s -> {fused_seconds:.3f}s)"
    )
