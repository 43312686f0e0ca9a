"""Backend differentials for the sum-based and local predictors.

Covers the newest members of the fast family: the perceptron and O-GEHL
kernels — the C sum walk, or the NumPy leg's dot-product kernels
without the C build — (plain accuracy, × their storage-free
self-confidence estimators, × the JRS-family tables) and the two-level
local-history predictor (segmented-window + PHT scan), across curated
off-default geometries and Hypothesis-generated adversarial traces and
shapes.  Every run must match the reference engine bit for bit —
mispredictions, confusion matrices, storage budgets.
"""

from __future__ import annotations

import warnings

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.local import LocalHistoryPredictor
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.sim.backends import FastBackendFallbackWarning
from repro.sim.engine import simulate, simulate_binary
from repro.sim.fast import simulate_binary_fast, simulate_fast

from .test_tage_differential_random import trace_strategy

#: (label, factory) — default and off-default shapes of every newly
#: vectorized predictor.
PREDICTORS = [
    ("perceptron", lambda: PerceptronPredictor()),
    ("perceptron-small", lambda: PerceptronPredictor(
        log_entries=5, history_length=9, weight_bits=6)),
    ("perceptron-wide", lambda: PerceptronPredictor(
        log_entries=7, history_length=48)),
    ("ogehl", lambda: OgehlPredictor()),
    ("ogehl-small", lambda: OgehlPredictor(
        n_tables=4, log_entries=6, counter_bits=3, min_history=2, max_history=30)),
    ("ogehl-5bit", lambda: OgehlPredictor(counter_bits=5)),
    ("local", lambda: LocalHistoryPredictor()),
    ("local-small", lambda: LocalHistoryPredictor(
        log_histories=5, history_length=6, log_pht=8)),
    ("local-pap", lambda: LocalHistoryPredictor(shared_pht=False)),
]

#: The sum-based subset (self-confidence capable).
SUM_PREDICTORS = [cell for cell in PREDICTORS if not cell[0].startswith("local")]

TRACE_FIXTURES = ("int1_trace", "serv1_trace", "twolf_trace")


@pytest.fixture(params=TRACE_FIXTURES)
def trace(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("label,make_predictor", PREDICTORS,
                         ids=[label for label, _ in PREDICTORS])
def test_accuracy_run_is_bit_identical(trace, label, make_predictor):
    reference = simulate(trace, make_predictor())
    fast = simulate_fast(trace, make_predictor())
    assert fast == reference
    assert fast.storage_bits == reference.storage_bits


@pytest.mark.parametrize("label,make_predictor", SUM_PREDICTORS,
                         ids=[label for label, _ in SUM_PREDICTORS])
def test_self_confidence_run_is_bit_identical(trace, label, make_predictor):
    warmup = len(trace) // 4

    def run(engine):
        predictor = make_predictor()
        return engine(
            trace, predictor, SelfConfidenceEstimator(predictor),
            warmup_branches=warmup,
        )

    ref_metrics, ref_result = run(simulate_binary)
    fast_metrics, fast_result = run(simulate_binary_fast)
    assert fast_result == ref_result
    assert fast_metrics == ref_metrics


@pytest.mark.parametrize("label,make_predictor", PREDICTORS,
                         ids=[label for label, _ in PREDICTORS])
@pytest.mark.parametrize("make_estimator", [JrsEstimator, EnhancedJrsEstimator],
                         ids=["jrs", "ejrs"])
def test_jrs_over_new_predictors_is_bit_identical(
    trace, label, make_predictor, make_estimator
):
    ref_metrics, ref_result = simulate_binary(
        trace, make_predictor(), make_estimator(), warmup_branches=500
    )
    fast_metrics, fast_result = simulate_binary_fast(
        trace, make_predictor(), make_estimator(), warmup_branches=500
    )
    assert fast_result == ref_result
    assert fast_metrics == ref_metrics


def test_dispatch_runs_fast_without_warning(int1_trace):
    for _, make_predictor in PREDICTORS:
        reference = simulate(int1_trace, make_predictor())
        with warnings.catch_warnings():
            warnings.simplefilter("error", FastBackendFallbackWarning)
            fast = simulate(int1_trace, make_predictor(), backend="fast")
        assert fast == reference


def test_fast_path_leaves_components_untrained(int1_trace):
    """Power-on contract for the new kernels."""
    perceptron = PerceptronPredictor()
    simulate_binary_fast(
        int1_trace, perceptron, SelfConfidenceEstimator(perceptron)
    )
    assert all(not any(row) for row in perceptron._weights)

    ogehl = OgehlPredictor()
    simulate_binary_fast(int1_trace, ogehl, SelfConfidenceEstimator(ogehl))
    assert all(not any(table) for table in ogehl._tables)
    assert ogehl.threshold == ogehl.n_tables

    local = LocalHistoryPredictor()
    simulate_fast(int1_trace, local)
    assert not any(local._histories)
    assert all(counter == 2 for counter in local._pht)


def test_pretrained_ogehl_instance_runs_from_power_on(int1_trace):
    """Regression: the kernel must seed the adaptive TC threshold from
    the power-on value (n_tables), not the instance's live threshold —
    a pre-trained predictor handed to the fast path behaves exactly
    like a fresh one (the documented power-on contract)."""
    pretrained = OgehlPredictor()
    for step in range(512):
        pretrained.predict_and_train(0x40 + 4 * (step % 17), step % 3 != 0)
    assert pretrained.threshold != pretrained.n_tables  # TC actually moved
    fast = simulate_binary_fast(
        int1_trace, pretrained, SelfConfidenceEstimator(pretrained)
    )
    reference_fresh = OgehlPredictor()
    reference = simulate_binary(
        int1_trace, reference_fresh, SelfConfidenceEstimator(reference_fresh)
    )
    assert fast == reference


@st.composite
def perceptron_shapes(draw):
    return PerceptronPredictor(
        log_entries=draw(st.integers(1, 6)),
        history_length=draw(st.integers(1, 40)),
        weight_bits=draw(st.integers(2, 8)),
    )


@st.composite
def ogehl_shapes(draw):
    min_history = draw(st.integers(1, 6))
    return OgehlPredictor(
        n_tables=draw(st.integers(2, 7)),
        log_entries=draw(st.integers(1, 6)),
        counter_bits=draw(st.integers(2, 6)),
        min_history=min_history,
        max_history=draw(st.integers(min_history, 60)),
    )


@st.composite
def local_shapes(draw):
    log_pht = draw(st.integers(2, 8))
    return LocalHistoryPredictor(
        log_histories=draw(st.integers(1, 5)),
        history_length=draw(st.integers(1, log_pht)),
        log_pht=log_pht,
        shared_pht=draw(st.booleans()),
    )


@settings(max_examples=50, deadline=None)
@given(trace=trace_strategy(), predictor=st.one_of(
    perceptron_shapes(), ogehl_shapes(), local_shapes()))
def test_random_accuracy_runs(trace, predictor):
    fast = simulate_fast(trace, predictor)
    predictor.reset()
    reference = simulate(trace, predictor)
    assert fast == reference


@settings(max_examples=50, deadline=None)
@given(
    trace=trace_strategy(),
    predictor=st.one_of(perceptron_shapes(), ogehl_shapes()),
    warmup_fraction=st.floats(0.0, 1.0),
)
def test_random_self_confidence_runs(trace, predictor, warmup_fraction):
    warmup = int(len(trace) * warmup_fraction)
    fast = simulate_binary_fast(
        trace, predictor, SelfConfidenceEstimator(predictor),
        warmup_branches=warmup,
    )
    predictor.reset()
    reference = simulate_binary(
        trace, predictor, SelfConfidenceEstimator(predictor),
        warmup_branches=warmup,
    )
    assert fast == reference
