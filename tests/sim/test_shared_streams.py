"""The per-trace derived-stream cache and the kernel passes it saves.

:meth:`TraceArrays.derived` hands every cell of one materialized trace
the same read-only stream per key; the pass-count test below guards the
sharing itself, by counting kernel entries over a small sweep — if a
refactor silently stopped sharing, the results would stay identical
and only these counts would notice.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.fast import LockstepCell, simulate_tage_lockstep, tage_fast_predictions
from repro.sim.fast import arrays as fast_arrays
from repro.sim.fast import capability, compiled, gehl, tage, vectorized
from repro.sim.fast.arrays import TraceArrays
from repro.sweep.executor import run_sweep
from repro.sweep.spec import EstimatorSpec, ExperimentSpec, PredictorSpec


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Start every test with no trace materialized."""
    monkeypatch.setattr(fast_arrays, "_LAST_MATERIALIZED", None)


def test_derived_is_built_once_per_key_and_read_only(int1_trace):
    arrays = TraceArrays.from_trace(int1_trace)
    builds = []

    def build(value):
        def run():
            builds.append(value)
            return np.full(len(arrays), value, dtype=np.int64)
        return run

    first = arrays.derived(("stream", 1), build(1))
    assert arrays.derived(("stream", 1), build(99)) is first
    other = arrays.derived(("stream", 2), build(2))
    assert other is not first
    assert builds == [1, 2]
    assert not first.flags.writeable and not other.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 5


def test_derived_pairs_are_read_only(int1_trace):
    arrays = TraceArrays.from_trace(int1_trace)
    pair = arrays.derived(("pair",), lambda: (np.zeros(3), np.ones(3)))
    assert arrays.derived(("pair",), lambda: None) is pair
    assert not any(array.flags.writeable for array in pair)


def test_moving_to_another_trace_drops_the_streams(int1_trace, fp1_trace):
    arrays = TraceArrays.from_trace(int1_trace)
    assert TraceArrays.from_trace(int1_trace) is arrays
    stream = arrays.derived(("stream",), lambda: np.arange(3))
    TraceArrays.from_trace(fp1_trace)
    again = TraceArrays.from_trace(int1_trace)
    assert again is not arrays
    assert again.derived(("stream",), lambda: np.arange(3)) is not stream


def test_lockstep_cell_publishes_its_predictions(int1_trace):
    config = TageConfig.small().with_probabilistic_automaton()
    observed = TagePredictor(config)
    cell = LockstepCell(observed, TageConfidenceEstimator(observed),
                        warmup_branches=100)
    simulate_tage_lockstep(int1_trace, [cell])
    arrays = TraceArrays.from_trace(int1_trace)
    published = arrays.derived(capability.prediction_stream_key(observed),
                               lambda: pytest.fail("stream was not published"))
    expected = tage_fast_predictions(arrays, TagePredictor(config))
    assert np.array_equal(published, expected)


def test_controlled_cell_publishes_nothing(int1_trace):
    predictor = TagePredictor(TageConfig.small().with_probabilistic_automaton())
    cell = LockstepCell(predictor, TageConfidenceEstimator(predictor),
                        AdaptiveSaturationController(predictor))
    simulate_tage_lockstep(int1_trace, [cell])
    arrays = TraceArrays.from_trace(int1_trace)
    assert arrays.derived(capability.prediction_stream_key(predictor),
                          lambda: np.zeros(0)).size == 0


def test_one_pass_per_stream_over_a_sweep(monkeypatch):
    """TAGE×{tage,jrs} + perceptron×{jrs,self} + gshare×jrs on one trace:
    one TAGE kernel pass for the one TageConfig, one perceptron run and,
    on the NumPy leg, one JRS index build for the three JRS cells (the
    C leg's counter walk carries its history and builds no index)."""
    counts = {"tage": 0, "perceptron": 0, "jrs_index": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # power_on starts every TAGE kernel pass, on either kernel leg.
    monkeypatch.setattr(tage, "power_on", counting("tage", tage.power_on))
    monkeypatch.setattr(gehl, "perceptron_fast_run",
                        counting("perceptron", gehl.perceptron_fast_run))
    monkeypatch.setattr(vectorized, "_jrs_index",
                        counting("jrs_index", vectorized._jrs_index))

    spec = ExperimentSpec(
        name="shared-passes",
        predictors=tuple(PredictorSpec.parse(token)
                         for token in ("tage-16K", "perceptron", "gshare")),
        estimators=tuple(EstimatorSpec.of(kind)
                         for kind in ("tage", "jrs", "self")),
        traces=("INT-1",),
        n_branches=2_000,
        backend="fast",
    )
    run = run_sweep(spec, workers=1)
    assert len(run.table) == 5 and not run.quarantined
    jrs_indices = 0 if compiled.resolve_counter_walk_kernel() else 1
    assert counts == {"tage": 1, "perceptron": 1, "jrs_index": jrs_indices}
