"""Tests for trace lookup, the TAGE presets and the one-trace run."""

import pytest

from repro.predictors.tage.config import AUTOMATON_PROBABILISTIC
from repro.sim.runner import build_predictor, get_trace, run_trace
from repro.sweep import EstimatorSpec, ExperimentSpec, PredictorSpec, run_sweep


class TestBuildPredictor:
    def test_presets(self):
        assert build_predictor("16K").storage_bits() == 16 * 1024
        assert build_predictor("64K").storage_bits() == 64 * 1024
        assert build_predictor("256K").storage_bits() == 256 * 1024

    def test_automaton_selection(self):
        predictor = build_predictor("16K", automaton=AUTOMATON_PROBABILISTIC, sat_prob_log2=4)
        assert predictor.saturation_probability_log2 == 4

    def test_overrides(self):
        predictor = build_predictor("16K", ctr_bits=4)
        assert predictor.config.ctr_bits == 4

    def test_unknown_size(self):
        with pytest.raises(KeyError):
            build_predictor("2M")


class TestGetTrace:
    def test_cbp1_and_cbp2(self):
        assert get_trace("MM-1", 400).name == "MM-1"
        assert get_trace("252.eon", 400).name == "252.eon"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_trace("CBP3-1", 400)


class TestRunTrace:
    def test_produces_class_breakdown(self, tiny_trace):
        result = run_trace(tiny_trace, size="16K")
        assert result.classes is not None
        assert result.classes.total_predictions == len(tiny_trace)

    def test_adaptive_forces_probabilistic(self, tiny_trace):
        result = run_trace(tiny_trace, size="16K", adaptive=True)
        assert result.final_sat_prob_log2 is not None

    def test_config_overrides_forwarded(self, tiny_trace):
        result = run_trace(tiny_trace, size="16K", ctr_bits=4)
        assert result.storage_bits > 16 * 1024  # wider counters cost bits


class TestSuiteGrid:
    """A suite is a one-grid sweep: TAGE × the observation estimator."""

    @staticmethod
    def _results(names):
        spec = ExperimentSpec(
            name="suite",
            predictors=(PredictorSpec.of("tage", size="16K"),),
            estimators=(EstimatorSpec.of("tage"),),
            traces=names,
            n_branches=600,
        )
        return run_sweep(spec).table.simulation_results()

    def test_runs_named_subset_in_order(self):
        results = self._results(("MM-1", "FP-1"))
        assert [result.trace_name for result in results] == ["MM-1", "FP-1"]
        assert all(result.classes is not None for result in results)

    def test_fresh_predictor_per_trace(self):
        """Each trace is simulated independently: a trace's result does
        not depend on the traces run before it."""
        _, alone_second = self._results(("INT-1", "FP-1"))
        assert alone_second == run_trace(get_trace("FP-1", 600), size="16K")
