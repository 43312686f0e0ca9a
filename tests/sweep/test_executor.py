"""Tests for sweep execution: single jobs, pools, caching, aggregation."""

import pytest

from repro.sim.runner import get_trace, run_trace
from repro.sweep import (
    EstimatorSpec,
    ExperimentSpec,
    PredictorSpec,
    ResultCache,
    run_sweep,
)
from repro.sweep.executor import execute_job
from repro.sweep.spec import JobSpec

N_BRANCHES = 800


def make_spec(**overrides) -> ExperimentSpec:
    options = dict(
        name="exec",
        predictors=(
            PredictorSpec.of("tage", size="16K"),
            PredictorSpec.of("gshare"),
        ),
        estimators=(EstimatorSpec.of("tage"), EstimatorSpec.of("jrs")),
        traces=("FP-1", "INT-1"),
        n_branches=N_BRANCHES,
    )
    options.update(overrides)
    return ExperimentSpec(**options)


class TestExecuteJob:
    def test_tage_observation_job(self):
        job = JobSpec(
            predictor=PredictorSpec.of("tage", size="16K"),
            estimator=EstimatorSpec.of("tage"),
            trace="INT-1",
            n_branches=N_BRANCHES,
        )
        outcome = execute_job(job)
        assert outcome.result.classes is not None
        assert outcome.result.n_branches == N_BRANCHES
        assert outcome.estimator_bits == 0
        # Binary view derived from the levels: totals must match.
        assert outcome.binary is not None
        assert outcome.binary.total == N_BRANCHES

    def test_binary_estimator_job(self):
        job = JobSpec(
            predictor=PredictorSpec.of("gshare"),
            estimator=EstimatorSpec.of("jrs"),
            trace="INT-1",
            n_branches=N_BRANCHES,
        )
        outcome = execute_job(job)
        assert outcome.result.classes is None
        assert outcome.binary is not None
        assert outcome.binary.total == N_BRANCHES
        assert outcome.estimator_bits > 0

    def test_self_confidence_job(self):
        job = JobSpec(
            predictor=PredictorSpec.of("ogehl", n_tables=4, log_entries=8),
            estimator=EstimatorSpec.of("self"),
            trace="FP-1",
            n_branches=N_BRANCHES,
        )
        outcome = execute_job(job)
        assert outcome.estimator_bits == 0
        assert outcome.binary is not None

    def test_seed_changes_probabilistic_outcome_stream(self):
        def result_for(seed):
            job = JobSpec(
                predictor=PredictorSpec.of("tage", size="16K",
                                           automaton="probabilistic",
                                           sat_prob_log2=2),
                estimator=EstimatorSpec.of("tage"),
                trace="INT-1",
                n_branches=N_BRANCHES,
                seed=seed,
            )
            return execute_job(job).result

        assert result_for(1).class_table() == result_for(1).class_table()
        # Different derived seeds reseed the LFSR: the per-class split of
        # a heavily probabilistic automaton should not be identical.
        assert result_for(1).class_table() != result_for(2).class_table()


class TestRunSweep:
    def test_serial_equals_parallel(self):
        spec = make_spec()
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.table.rows() == parallel.table.rows()
        assert serial.n_jobs == parallel.n_jobs == 6  # 3 pairs x 2 traces

    def test_seeded_serial_equals_parallel(self):
        spec = make_spec(seed=2011)
        assert run_sweep(spec, workers=1).table.rows() == \
            run_sweep(spec, workers=3).table.rows()

    def test_matches_per_trace_run_trace(self):
        spec = make_spec(
            predictors=(PredictorSpec.of("tage", size="16K"),),
            estimators=(EstimatorSpec.of("tage"),),
            warmup_branches=100,
        )
        swept = run_sweep(spec, workers=2).table.simulation_results()
        legacy = [
            run_trace(get_trace(name, N_BRANCHES), size="16K", warmup_branches=100)
            for name in ("FP-1", "INT-1")
        ]
        assert len(swept) == len(legacy)
        for mine, reference in zip(swept, legacy):
            assert mine.trace_name == reference.trace_name
            assert mine.mispredictions == reference.mispredictions
            assert mine.class_table() == reference.class_table()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep(make_spec(), workers=0)

    def test_progress_lines_emitted(self):
        lines = []
        run_sweep(make_spec(traces=("FP-1",)), workers=1, progress=lines.append)
        assert any("jobs" in line for line in lines)


class TestRunSweepCache:
    def test_second_run_served_from_cache(self, tmp_path):
        spec = make_spec()
        cache = ResultCache(tmp_path)
        cold = run_sweep(spec, workers=2, cache=cache)
        assert cold.n_executed == cold.n_jobs and cold.n_cached == 0

        warm = run_sweep(spec, workers=2, cache=cache)
        assert warm.n_cached == warm.n_jobs and warm.n_executed == 0
        assert warm.table.rows() == cold.table.rows()

    def test_partial_overlap_only_runs_new_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(make_spec(), workers=1, cache=cache)
        grown = make_spec(traces=("FP-1", "INT-1", "MM-1"))
        run = run_sweep(grown, workers=1, cache=cache)
        assert run.n_jobs == 9
        assert run.n_cached == 6  # the original two traces
        assert run.n_executed == 3  # only MM-1 cells simulate

    def test_option_change_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(make_spec(), workers=1, cache=cache)
        rerun = run_sweep(make_spec(n_branches=N_BRANCHES + 1),
                          workers=1, cache=cache)
        assert rerun.n_cached == 0


class TestResultTable:
    def test_grouping_filtering_and_pooling(self):
        table = run_sweep(make_spec(), workers=1).table
        groups = table.group("predictor", "estimator")
        assert set(groups) == {
            ("tage-16K", "tage"), ("tage-16K", "jrs"), ("gshare", "jrs"),
        }
        only_tage = table.filter(predictor="tage-16K", estimator="tage")
        assert len(only_tage) == 2
        assert only_tage.summary().results == only_tage.simulation_results()
        pooled = only_tage.pooled_binary()
        assert pooled.total == 2 * N_BRANCHES

    def test_tsv_shape(self):
        table = run_sweep(make_spec(traces=("FP-1",)), workers=1).table
        lines = table.to_tsv().splitlines()
        assert lines[0].startswith("trace\tpredictor\testimator")
        assert len(lines) == 1 + len(table)

    def test_summaries_by_group(self):
        table = run_sweep(make_spec(), workers=1).table
        summaries = table.summaries("estimator")
        assert set(summaries) == {("tage",), ("jrs",)}
        # JRS rows carry no class breakdown; the pooled summary still
        # aggregates accuracy.
        assert summaries[("jrs",)].total_predictions == 4 * N_BRANCHES
