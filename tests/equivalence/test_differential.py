"""Backend differential tests over the supported predictor × estimator grid.

The grid crosses every vectorizable predictor configuration with every
vectorizable estimator configuration (plus the estimator-free accuracy
run) over traces from three behaviour families, and asserts the fast
backend reproduces the reference engine exactly — counts, confusion
matrices, storage budgets, everything the result dataclasses compare.
"""

from __future__ import annotations

from functools import partial

import pytest

np = pytest.importorskip("numpy")

from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.sim.engine import simulate, simulate_binary
from repro.sim.fast import compiled, simulate_binary_fast, simulate_fast, vectorized
from repro.sim.fast.scan import scanned_counters

#: (label, factory) — fresh predictor per run, default and off-default shapes.
PREDICTORS = [
    ("bimodal", lambda: BimodalPredictor()),
    ("bimodal-small", lambda: BimodalPredictor(log_entries=7, counter_bits=3)),
    ("gshare", lambda: GsharePredictor()),
    ("gshare-small", lambda: GsharePredictor(log_entries=9, history_length=7)),
]

#: (label, factory) — fresh binary estimator per run.
ESTIMATORS = [
    ("jrs", lambda: JrsEstimator()),
    ("jrs-small", lambda: JrsEstimator(log_entries=8, counter_bits=3,
                                       threshold=5, history_length=6)),
    ("ejrs", lambda: EnhancedJrsEstimator()),
]

TRACE_FIXTURES = ("int1_trace", "serv1_trace", "twolf_trace")


@pytest.fixture(params=TRACE_FIXTURES)
def trace(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("predictor_label,make_predictor", PREDICTORS,
                         ids=[label for label, _ in PREDICTORS])
def test_accuracy_run_is_bit_identical(trace, predictor_label, make_predictor):
    reference = simulate(trace, make_predictor())
    fast = simulate_fast(trace, make_predictor())
    assert fast == reference
    assert fast.mpki == reference.mpki
    assert fast.storage_bits == reference.storage_bits


@pytest.mark.parametrize("predictor_label,make_predictor", PREDICTORS,
                         ids=[label for label, _ in PREDICTORS])
@pytest.mark.parametrize("estimator_label,make_estimator", ESTIMATORS,
                         ids=[label for label, _ in ESTIMATORS])
def test_binary_run_is_bit_identical(
    trace, predictor_label, make_predictor, estimator_label, make_estimator
):
    warmup = len(trace) // 4
    ref_metrics, ref_result = simulate_binary(
        trace, make_predictor(), make_estimator(), warmup_branches=warmup
    )
    fast_metrics, fast_result = simulate_binary_fast(
        trace, make_predictor(), make_estimator(), warmup_branches=warmup
    )
    assert fast_result == ref_result
    assert fast_metrics == ref_metrics


@pytest.mark.parametrize("warmup", [0, 1, 3999, 8000])
def test_warmup_split_matches_reference(int1_trace, warmup):
    ref_metrics, ref_result = simulate_binary(
        int1_trace, GsharePredictor(), JrsEstimator(), warmup_branches=warmup
    )
    fast_metrics, fast_result = simulate_binary_fast(
        int1_trace, GsharePredictor(), JrsEstimator(), warmup_branches=warmup
    )
    assert fast_metrics == ref_metrics
    assert fast_result == ref_result


@pytest.mark.parametrize("chunk_size", [1, 3, 97, 1 << 10, 1 << 20])
def test_chunk_size_does_not_change_results(tiny_trace, chunk_size, monkeypatch):
    """The NumPy leg's counter scans give the reference bytes at any
    chunk size (the C leg walks the trace without chunking)."""
    monkeypatch.setenv(compiled.PROVIDER_ENV, "none")
    monkeypatch.setattr(vectorized, "scanned_counters",
                        partial(scanned_counters, chunk_size=chunk_size))
    baseline_metrics, baseline_result = simulate_binary(
        tiny_trace, GsharePredictor(), EnhancedJrsEstimator(), warmup_branches=100
    )
    metrics, result = simulate_binary_fast(
        tiny_trace,
        GsharePredictor(),
        EnhancedJrsEstimator(),
        warmup_branches=100,
    )
    assert metrics == baseline_metrics
    assert result == baseline_result


def test_backend_dispatch_reaches_fast_engine(tiny_trace, monkeypatch):
    """``simulate(..., backend="fast")`` must actually execute the fast
    engine for a supported cell (no silent fallback)."""
    import repro.sim.fast as fast_module

    calls = []
    original = fast_module.simulate_fast

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fast_module, "simulate_fast", spy)
    result = simulate(tiny_trace, BimodalPredictor(), backend="fast")
    assert calls, "fast backend was not invoked"
    assert result == simulate(tiny_trace, BimodalPredictor())


def test_fast_backend_leaves_components_untrained(tiny_trace):
    """The fast path only reads configuration: the instances keep their
    power-on state (documented contract of ``backend='fast'``)."""
    predictor = GsharePredictor()
    estimator = JrsEstimator()
    table_before = list(predictor._table)
    simulate_binary_fast(tiny_trace, predictor, estimator)
    assert predictor._table == table_before
    assert predictor._pending_pc is None
    assert all(counter == 0 for counter in estimator._table)
