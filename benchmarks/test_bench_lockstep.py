"""Lockstep-batching wall-clock bench (not a paper experiment).

The shape lockstep exists for: a §6-style ablation grid — many TAGE-16K
variants differing only in kernel-level knobs (automaton, saturation
probability, seeds, u-reset period, allocation policy, counter widths,
adaptive control) — over one trace.  Every variant shares the trace's
index/tag planes, so independent jobs recompute those planes per cell
while one :func:`simulate_tage_lockstep` pass computes them once and
runs all cells through a single batched kernel sweep.

Asserts strict bit-identity between the fused and independent runs and
emits ``benchmarks/records/BENCH_lockstep.json``.  The independent leg
runs the pure-Python kernel — exactly the per-job fast path every sweep
used before lockstep batching and compiled kernels landed (the path
``BENCH_tage_fast`` gates) — while the lockstep leg runs the new sweep
default: one fused pass on the best available kernel.  The ratio is
therefore the end-to-end sweep-level win of this optimisation pair,
stacked the way ``run_sweep`` actually stacks them
(``BENCH_tage_compiled`` isolates the kernel half on shared planes).
"""

from __future__ import annotations

import time

import pytest

np = pytest.importorskip("numpy")

from conftest import bench_branches, bench_speedup_target, emit, record, run_once  # noqa: F401

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.fast import (
    LockstepCell,
    compiled,
    simulate_tage_fast,
    simulate_tage_lockstep,
)

SPEEDUP_TARGET = bench_speedup_target()
TRACES = ("INT-1", "FP-1", "MM-1", "SERV-1")

#: The ablation grid: every cell maps onto the same 16K plane geometry.
VARIANTS = [
    ("base", lambda: TageConfig.small()),
    ("prob-7", lambda: TageConfig.small().with_probabilistic_automaton()),
    ("prob-5", lambda: TageConfig.small().with_probabilistic_automaton(5)),
    ("prob-3", lambda: TageConfig.small().with_probabilistic_automaton(3)),
    ("prob-1", lambda: TageConfig.small().with_probabilistic_automaton(1)),
    ("prob-0", lambda: TageConfig.small().with_probabilistic_automaton(0)),
    ("seeded-a", lambda: TageConfig.small(lfsr_seed=0xA11CE, alloc_seed=11,
                                          automaton="probabilistic")),
    ("seeded-b", lambda: TageConfig.small(lfsr_seed=0xB0B, alloc_seed=22,
                                          automaton="probabilistic")),
    ("ureset-512", lambda: TageConfig.small(u_reset_period=512)),
    ("ureset-700", lambda: TageConfig.small(u_reset_period=700)),
    ("ureset-900", lambda: TageConfig.small(u_reset_period=900)),
    ("first-free", lambda: TageConfig.small(allocation_policy="first-free")),
    ("no-alt", lambda: TageConfig.small(use_alt_on_na_enabled=False)),
    ("ltage-alt", lambda: TageConfig.small(update_alt_when_u_zero=True)),
    ("ctr-4", lambda: TageConfig.small(ctr_bits=4)),
    ("u-1", lambda: TageConfig.small(u_bits=1)),
]

#: (label, adaptive?) — two §6.2 adaptive-controller cells ride along.
ADAPTIVE = [
    ("adaptive-8", 8.0),
    ("adaptive-12", 12.0),
]


def _make_cells(warmup: int) -> list[LockstepCell]:
    cells = []
    for _, make_config in VARIANTS:
        predictor = TagePredictor(make_config())
        cells.append(LockstepCell(predictor, TageConfidenceEstimator(predictor),
                                  None, warmup))
    for _, target in ADAPTIVE:
        predictor = TagePredictor(
            TageConfig.small().with_probabilistic_automaton()
        )
        estimator = TageConfidenceEstimator(predictor)
        controller = AdaptiveSaturationController(predictor, target_mkp=target)
        cells.append(LockstepCell(predictor, estimator, controller, warmup))
    return cells


def _run_independent(traces, warmup) -> tuple[list, float, list[dict]]:
    """Each cell as its own pure-kernel job: planes recomputed per
    (trace, cell), exactly the per-job fast path sweeps ran before
    lockstep batching existed."""
    results = []
    per_trace = []
    total = 0.0
    for name, trace in traces:
        start = time.perf_counter()
        for cell in _make_cells(warmup):
            results.append(simulate_tage_fast(
                trace, cell.predictor, cell.estimator, cell.controller,
                warmup_branches=cell.warmup_branches,
            ))
        elapsed = time.perf_counter() - start
        total += elapsed
        per_trace.append({"trace": name, "seconds": round(elapsed, 6)})
    return results, total, per_trace


def _run_lockstep(traces, warmup) -> tuple[list, float, list[dict]]:
    results = []
    per_trace = []
    total = 0.0
    for name, trace in traces:
        start = time.perf_counter()
        results.extend(simulate_tage_lockstep(trace, _make_cells(warmup)))
        elapsed = time.perf_counter() - start
        total += elapsed
        per_trace.append({"trace": name, "seconds": round(elapsed, 6)})
    return results, total, per_trace


def test_lockstep_wallclock(run_once, monkeypatch):
    branches = bench_branches()
    warmup = branches // 4
    traces = []
    from repro.traces.suites import cbp1_trace
    for name in TRACES:
        traces.append((name, cbp1_trace(name, branches)))
    # Warm the kernel path (provider build, imports) outside the timings.
    simulate_tage_lockstep(traces[0][1], _make_cells(0)[:2])

    with monkeypatch.context() as pinned:
        pinned.setenv(compiled.PROVIDER_ENV, "none")
        independent_results, independent_seconds, independent_rows = run_once(
            lambda: _run_independent(traces, warmup)
        )
    lockstep_results, lockstep_seconds, lockstep_rows = _run_lockstep(
        traces, warmup
    )

    # The whole point: fused passes are bit-for-bit invisible.
    assert lockstep_results == independent_results

    n_cells = len(VARIANTS) + len(ADAPTIVE)
    speedup = independent_seconds / max(lockstep_seconds, 1e-9)
    payload = {
        "bench": "lockstep",
        "suite": "CBP1-subset",
        "n_traces": len(TRACES),
        "branches_per_trace": branches,
        "cells_per_trace": n_cells,
        "lockstep_kernel_provider": compiled.active_provider(),
        "variants": [label for label, _ in VARIANTS]
        + [label for label, _ in ADAPTIVE],
        "independent_seconds": round(independent_seconds, 4),
        "lockstep_seconds": round(lockstep_seconds, 4),
        "speedup": round(speedup, 2),
        "speedup_target": SPEEDUP_TARGET,
        "per_trace": {
            "independent": independent_rows,
            "lockstep": lockstep_rows,
        },
    }
    record("lockstep", payload)

    emit(
        "lockstep",
        "\n".join([
            f"lockstep bench: {len(TRACES)} traces x {n_cells} "
            f"shared-plane TAGE-16K ablation cells x {branches} branches",
            f"independent: {independent_seconds:.3f}s (pure kernel, "
            f"{n_cells} plane computations per trace)",
            f"lockstep:    {lockstep_seconds:.3f}s (1 plane computation + "
            f"1 batched {compiled.active_provider() or 'pure'}-kernel "
            "pass per trace)",
            f"speedup:     {speedup:.1f}x (target >= {SPEEDUP_TARGET:g}x)",
        ]),
    )

    assert speedup >= SPEEDUP_TARGET, (
        f"lockstep speedup {speedup:.2f}x below the {SPEEDUP_TARGET:g}x "
        f"target ({independent_seconds:.3f}s -> {lockstep_seconds:.3f}s)"
    )
