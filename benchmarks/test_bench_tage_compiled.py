"""Compiled-kernel wall-clock bench (not a paper experiment).

Runs the paper's central cell — TAGE-16K with the storage-free
observation estimator — over the Table-1 (CBP-1) trace suite with the
pure-Python kernel (``REPRO_COMPILED_PROVIDER=none``) and again with
the embedded-C build (``cext``), asserts strict bit-identity, and
emits ``benchmarks/records/BENCH_tage_compiled.json``.

Both timed regions run over the *same* precomputed index/tag planes
(``tage._plane_chunks`` is patched to hand each trace's whole-trace
rows to the kernel as one chunk), so the ratio isolates exactly what
the C build replaces: the sequential per-branch update loop.  Boxes
without a C compiler skip — there is nothing to measure.
"""

from __future__ import annotations

import time
import warnings

import pytest

np = pytest.importorskip("numpy")

from conftest import bench_branches, bench_speedup_target, emit, record, run_once  # noqa: F401

from repro.confidence.estimator import TageConfidenceEstimator
from repro.sim.backends import FastBackendFallbackWarning
from repro.sim.fast import (
    TraceArrays,
    compiled,
    compute_planes,
    plane_geometry,
    simulate_tage_fast,
    tage,
)
from repro.sim.runner import build_predictor
from repro.traces.suites import CBP1_TRACE_NAMES, cbp1_trace

SPEEDUP_TARGET = bench_speedup_target()
SIZE = "16K"


def _run_suite(workload, provider: str,
               monkeypatch) -> tuple[list, float, list[dict]]:
    """The TAGE×observation cell over every prepared trace, one kernel."""
    monkeypatch.setenv(compiled.PROVIDER_ENV, provider)
    warmup = bench_branches() // 4
    results = []
    per_trace = []
    total = 0.0
    for name, trace in workload:
        predictor = build_predictor(SIZE)
        estimator = TageConfidenceEstimator(predictor)
        start = time.perf_counter()
        result = simulate_tage_fast(
            trace, predictor, estimator, warmup_branches=warmup,
        )
        elapsed = time.perf_counter() - start
        total += elapsed
        results.append(result)
        per_trace.append({"trace": name, "seconds": round(elapsed, 6)})
    return results, total, per_trace


def test_tage_compiled_wallclock(run_once, monkeypatch):
    provider = compiled.active_provider()
    if provider is None:
        pytest.skip(
            f"no compiled kernel provider ({compiled.provider_unavailable_reason()})"
        )

    branches = bench_branches()
    # Precompute every trace's planes outside both timed regions — the
    # two kernels then read identical inputs — and force one compiled
    # run first so provider build/warm-up cost never lands in a timing.
    geometry = plane_geometry(build_predictor(SIZE).config)
    workload = []
    rows = {}
    for name in CBP1_TRACE_NAMES:
        trace = cbp1_trace(name, branches)
        workload.append((name, trace))
        rows[name] = compute_planes(TraceArrays.from_trace(trace),
                                    geometry).data[1:]

    def precomputed_chunks(arrays, chunk_geometry):
        assert chunk_geometry == geometry
        yield 0, rows[arrays.name]

    monkeypatch.setattr(tage, "_plane_chunks", precomputed_chunks)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        monkeypatch.setenv(compiled.PROVIDER_ENV, "cext")
        predictor = build_predictor(SIZE)
        simulate_tage_fast(workload[0][1], predictor,
                           TageConfidenceEstimator(predictor))

    pure_results, pure_seconds, pure_rows = run_once(
        lambda: _run_suite(workload, "none", monkeypatch)
    )
    compiled_results, compiled_seconds, compiled_rows = _run_suite(
        workload, "cext", monkeypatch
    )

    # Bit-for-bit equivalence, class breakdowns included.
    assert compiled_results == pure_results

    speedup = pure_seconds / max(compiled_seconds, 1e-9)
    branches_total = branches * len(CBP1_TRACE_NAMES)
    payload = {
        "bench": "tage_compiled",
        "suite": "CBP1",
        "provider": provider,
        "n_traces": len(CBP1_TRACE_NAMES),
        "branches_per_trace": branches,
        "cells_per_trace": [f"tage-{SIZE}+observation"],
        "pure_seconds": round(pure_seconds, 4),
        "compiled_seconds": round(compiled_seconds, 4),
        "speedup": round(speedup, 2),
        "speedup_target": SPEEDUP_TARGET,
        "pure_branches_per_second": int(branches_total / pure_seconds),
        "compiled_branches_per_second": int(branches_total / compiled_seconds),
        "per_trace": {
            "pure": pure_rows,
            "compiled": compiled_rows,
        },
    }
    record("tage_compiled", payload)

    emit(
        "tage_compiled",
        "\n".join([
            f"compiled-kernel bench: {len(CBP1_TRACE_NAMES)} CBP-1 traces x "
            f"{branches} branches, cell = tage-{SIZE} x observation, "
            f"shared planes, provider = {provider}",
            f"pure:      {pure_seconds:.3f}s "
            f"({payload['pure_branches_per_second']} branches/s)",
            f"compiled:  {compiled_seconds:.3f}s "
            f"({payload['compiled_branches_per_second']} branches/s)",
            f"speedup:   {speedup:.1f}x (target >= {SPEEDUP_TARGET:g}x)",
        ]),
    )

    assert speedup >= SPEEDUP_TARGET, (
        f"compiled kernel speedup {speedup:.2f}x below the "
        f"{SPEEDUP_TARGET:g}x target "
        f"({pure_seconds:.3f}s -> {compiled_seconds:.3f}s, provider {provider})"
    )
