"""Folded-history plane bench (not a paper experiment).

Builds the TAGE index/tag planes of the three preset geometries
(16K/64K/256K) and the O-GEHL index planes over the Table-1 (CBP-1)
trace suite twice: with the closed-form fold the fast backend uses
(:func:`repro.sim.fast.windows.folded_history_series`: one unbounded
fold per width, every history length O(1) more) and with the
one-xor-pass-per-history-age oracle kept in ``tests/sim/test_planes.py``.
It asserts the two are byte-identical and emits
``benchmarks/records/BENCH_planes.json``: the overall ``speedup`` and a
per-geometry ``layers`` split of both legs' seconds.

The oracle lives in the test module, so run from the repository root
(``python -m pytest benchmarks/test_bench_planes.py``) with hypothesis
installed.
"""

from __future__ import annotations

import time

import pytest

np = pytest.importorskip("numpy")

from conftest import bench_branches, bench_speedup_target, emit, record, run_once  # noqa: F401

from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.tage.config import TageConfig
from repro.sim.fast.arrays import TraceArrays
from repro.sim.fast.gehl import _ogehl_index_planes
from repro.sim.fast.planes import compute_planes
from repro.sim.fast.tage_core import plane_geometry
from repro.traces.suites import CBP1_TRACE_NAMES, cbp1_trace
from tests.sim.test_planes import per_age_compute_planes, per_age_ogehl_index_planes

SPEEDUP_TARGET = bench_speedup_target()

#: Timed repetitions per leg; the fastest is kept (both legs are pure,
#: so the minimum is the least-disturbed measurement).
REPEATS = 3


def _legs() -> dict:
    """Per layer: (closed-form builder, per-age builder), each of arrays."""
    legs = {}
    for label, make in (("tage-16K", TageConfig.small),
                        ("tage-64K", TageConfig.medium),
                        ("tage-256K", TageConfig.large)):
        geometry = plane_geometry(make())
        legs[label] = (
            lambda arrays, g=geometry: compute_planes(arrays, g).data,
            lambda arrays, g=geometry: per_age_compute_planes(arrays, g).data,
        )
    predictor = OgehlPredictor()
    legs["ogehl"] = (
        lambda arrays: _ogehl_index_planes(arrays, predictor),
        lambda arrays: per_age_ogehl_index_planes(arrays, predictor),
    )
    return legs


def _timed(build, traces) -> tuple[list, float]:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        planes = [build(arrays) for arrays in traces]
        best = min(best, time.perf_counter() - start)
    return planes, best


def _measure(traces) -> dict:
    layers = {}
    for label, (closed_form, per_age) in _legs().items():
        closed_planes, closed_seconds = _timed(closed_form, traces)
        per_age_planes, per_age_seconds = _timed(per_age, traces)
        for closed, oracle in zip(closed_planes, per_age_planes):
            np.testing.assert_array_equal(closed, oracle)
        layers[label] = {
            "per_age_seconds": round(per_age_seconds, 4),
            "closed_form_seconds": round(closed_seconds, 4),
            "speedup": round(per_age_seconds / max(closed_seconds, 1e-9), 2),
        }
    return layers


def test_planes_wallclock(run_once):
    branches = bench_branches()
    traces = [TraceArrays.from_trace(cbp1_trace(name, branches))
              for name in CBP1_TRACE_NAMES]
    layers = run_once(lambda: _measure(traces))

    per_age_seconds = sum(layer["per_age_seconds"] for layer in layers.values())
    closed_seconds = sum(layer["closed_form_seconds"] for layer in layers.values())
    speedup = per_age_seconds / max(closed_seconds, 1e-9)
    payload = {
        "bench": "planes",
        "suite": "CBP1",
        "n_traces": len(traces),
        "branches_per_trace": branches,
        "per_age_seconds": round(per_age_seconds, 4),
        "closed_form_seconds": round(closed_seconds, 4),
        "speedup": round(speedup, 2),
        "speedup_target": SPEEDUP_TARGET,
        "layers": layers,
    }
    record("planes", payload)

    lines = [
        f"plane bench: {len(traces)} CBP-1 traces x {branches} branches, "
        f"closed-form fold vs one pass per history age",
    ]
    for label, layer in layers.items():
        lines.append(
            f"{label:10s} per-age {layer['per_age_seconds']:.3f}s  "
            f"closed form {layer['closed_form_seconds']:.3f}s  "
            f"({layer['speedup']:.1f}x)"
        )
    lines.append(f"speedup: {speedup:.1f}x (target >= {SPEEDUP_TARGET:g}x)")
    emit("planes", "\n".join(lines))

    assert speedup >= SPEEDUP_TARGET, (
        f"closed-form plane speedup {speedup:.2f}x below the "
        f"{SPEEDUP_TARGET:g}x target ({per_age_seconds:.3f}s -> {closed_seconds:.3f}s)"
    )
