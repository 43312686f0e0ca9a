"""Compiled binary-cell bench (not a paper experiment).

Runs the baseline binary cells of Table 2 — perceptron and O-GEHL with
their §2.2 self-confidence, and gshare with a JRS estimator — over the
Table-1 (CBP-1) trace suite on the NumPy leg
(``REPRO_COMPILED_PROVIDER=none``: the lockstep perceptron, the scalar
O-GEHL loop over its folded-history index planes, and the gshare/JRS
index columns built from history windows feeding the segmented
clamp-add scan) and again on the C leg (``cext``: the sum walk and the
counter walk, which carry their histories in the state block and build
no window, index column or plane at all), asserts strict bit-identity,
and emits ``benchmarks/records/BENCH_binary_compiled.json``.

Each leg's time is split into two layers: the NumPy index/window
preparation (``history_windows``/``fold_windows``/
``folded_history_series``, timed by wrapping them; the C leg has none)
and the kernel proper (the remainder: the NumPy kernels, the counter
scans or the walks).  The C leg takes tens of milliseconds, so it runs
:data:`REPEATS` times and its fastest run is reported.  Boxes without a
C compiler skip — there is nothing to measure.
"""

from __future__ import annotations

import functools
import time
import warnings

import pytest

np = pytest.importorskip("numpy")

from conftest import bench_branches, bench_speedup_target, emit, record, run_once  # noqa: F401

from repro.confidence.jrs import JrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.gshare import GsharePredictor
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.sim.backends import FastBackendFallbackWarning
from repro.sim.fast import compiled, simulate_binary_fast, vectorized, windows
from repro.traces.suites import CBP1_TRACE_NAMES, cbp1_trace

SPEEDUP_TARGET = bench_speedup_target()
#: Runs of the C leg; the fastest is reported (as in
#: ``test_bench_serve_step.py``).
REPEATS = 3


def _perceptron_self():
    predictor = PerceptronPredictor()
    return predictor, SelfConfidenceEstimator(predictor)


def _ogehl_self():
    predictor = OgehlPredictor()
    return predictor, SelfConfidenceEstimator(predictor)


def _gshare_jrs():
    return GsharePredictor(), JrsEstimator()


CELLS = {"perceptron+self": _perceptron_self, "ogehl+self": _ogehl_self,
         "gshare+jrs": _gshare_jrs}

#: The NumPy window/fold helpers whose time is the preparation layer.
PREP_HELPERS = ("history_windows", "fold_windows", "folded_history_series")


class _PrepTimer:
    """Accumulates the time spent in the shared window helpers, wherever
    they are looked up (``vectorized`` imports them by name, ``gehl``
    from :mod:`~repro.sim.fast.windows` at call time); only the
    outermost of nested helper calls is timed."""

    def __init__(self, monkeypatch) -> None:
        self.seconds = 0.0
        self._depth = 0
        for name in PREP_HELPERS:
            fn = getattr(windows, name)
            timed = self._timed(fn)
            for module in (windows, vectorized):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, timed)

    def _timed(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if not self._depth:
                    self.seconds += time.perf_counter() - start
        return wrapper


def _run_leg(traces, provider: str, prep: _PrepTimer,
             monkeypatch) -> tuple[dict, dict]:
    """Every cell over every trace on one kernel leg."""
    monkeypatch.setenv(compiled.PROVIDER_ENV, provider)
    results = {}
    timings = {}
    for cell, make in CELLS.items():
        prep.seconds = 0.0
        total = 0.0
        outputs = []
        for trace in traces:
            predictor, estimator = make()
            start = time.perf_counter()
            outputs.append(simulate_binary_fast(trace, predictor, estimator,
                                                warmup_branches=len(trace) // 4))
            total += time.perf_counter() - start
        results[cell] = outputs
        timings[cell] = {
            "seconds": round(total, 4),
            "window_prep_seconds": round(prep.seconds, 4),
            "kernel_seconds": round(total - prep.seconds, 4),
        }
    return results, timings


def test_binary_compiled_wallclock(run_once, monkeypatch):
    provider = compiled.active_provider()
    if provider is None:
        pytest.skip(
            f"no compiled kernel provider ({compiled.provider_unavailable_reason()})"
        )

    branches = bench_branches()
    traces = [cbp1_trace(name, branches) for name in CBP1_TRACE_NAMES]
    # One compiled run first, so the build/load cost never lands in a
    # timing (and a required-but-missing C build fails loudly).
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        monkeypatch.setenv(compiled.PROVIDER_ENV, "cext")
        for make in CELLS.values():
            simulate_binary_fast(traces[0], *make())

    prep = _PrepTimer(monkeypatch)
    pure_results, pure_layers = run_once(
        lambda: _run_leg(traces, "none", prep, monkeypatch)
    )
    # The C leg takes only tens of milliseconds, so one run of it is
    # noise-bound: time it REPEATS times and keep the fastest run.
    compiled_runs = [_run_leg(traces, "cext", prep, monkeypatch)
                     for _ in range(REPEATS)]

    # Bit-for-bit equivalence: confusion matrices and accuracy results.
    for compiled_results, _ in compiled_runs:
        assert compiled_results == pure_results

    pure_seconds = sum(layer["seconds"] for layer in pure_layers.values())
    compiled_seconds, compiled_layers = min(
        ((sum(layer["seconds"] for layer in layers.values()), layers)
         for _, layers in compiled_runs),
        key=lambda run: run[0],
    )
    speedup = pure_seconds / max(compiled_seconds, 1e-9)
    branches_total = branches * len(traces) * len(CELLS)
    payload = {
        "bench": "binary_compiled",
        "suite": "CBP1",
        "provider": provider,
        "n_traces": len(traces),
        "branches_per_trace": branches,
        "cells_per_trace": list(CELLS),
        "pure_seconds": round(pure_seconds, 4),
        "compiled_seconds": round(compiled_seconds, 4),
        "compiled_repeats": REPEATS,
        "speedup": round(speedup, 2),
        "speedup_target": SPEEDUP_TARGET,
        "pure_branches_per_second": int(branches_total / pure_seconds),
        "compiled_branches_per_second": int(branches_total / compiled_seconds),
        "layers": {"pure": pure_layers, "compiled": compiled_layers},
    }
    record("binary_compiled", payload)

    lines = [
        f"binary compiled-kernel bench: {len(traces)} CBP-1 traces x "
        f"{branches} branches, cells = {', '.join(CELLS)}, provider = {provider}",
    ]
    for cell in CELLS:
        for leg, layers in (("pure", pure_layers), ("compiled", compiled_layers)):
            layer = layers[cell]
            lines.append(
                f"{cell:16s} {leg:9s} {layer['seconds']:.3f}s "
                f"(window prep {layer['window_prep_seconds']:.3f}s, "
                f"kernel {layer['kernel_seconds']:.3f}s)"
            )
    lines.append(f"speedup: {speedup:.1f}x (target >= {SPEEDUP_TARGET:g}x)")
    emit("binary_compiled", "\n".join(lines))

    assert speedup >= SPEEDUP_TARGET, (
        f"compiled binary-cell speedup {speedup:.2f}x below the "
        f"{SPEEDUP_TARGET:g}x target "
        f"({pure_seconds:.3f}s -> {compiled_seconds:.3f}s, provider {provider})"
    )
