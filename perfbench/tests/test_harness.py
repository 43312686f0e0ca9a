"""Tests of the benchmark harness itself (not of the program)."""

from __future__ import annotations

import multiprocessing
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import offline
import serving
import tracing

ROOT = harness.ROOT


# -- percentiles ------------------------------------------------------------

def test_nearest_rank_picks_the_smallest_sample_covering_q():
    samples = list(range(100, 0, -1))
    assert harness.nearest_rank(samples, 50) == 50
    assert harness.nearest_rank(samples, 99) == 99
    assert harness.nearest_rank(samples, 100) == 100
    assert harness.nearest_rank([7.0], 99) == 7.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.tail_percentile(list(range(1, 1001)), 99) == 990
    with pytest.raises(ValueError, match="9 beyond"):
        harness.tail_percentile(list(range(1, 1000)), 99)
    # A serve sample sends exactly enough requests for its p99.
    requests = serving.CLIENTS * serving.STREAM_BRANCHES // serving.BATCH
    harness.tail_percentile([0.0] * requests, 99)


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        harness.nearest_rank([], 50)
    with pytest.raises(ValueError):
        harness.nearest_rank([1], 0)


# -- sampling ---------------------------------------------------------------

def _sampler(monkeypatch, steal_per_sample):
    """quiet_samples over instant samples whose stolen CPU seconds are
    given; returns the indices it kept."""
    readings = iter([x for stolen in steal_per_sample for x in (0.0, stolen)])
    monkeypatch.setattr(harness, "steal_seconds", lambda: next(readings))
    monkeypatch.setattr(harness.time, "monotonic",
                        iter(range(0, 1000, 1)).__next__)
    return harness.quiet_samples(lambda index: index, 3, 0)


def test_samples_with_stolen_cpu_are_retried(monkeypatch):
    assert _sampler(monkeypatch, [0.0, 5.0, 0.0, 0.0]) == [0, 2, 3]


def test_without_enough_quiet_samples_the_least_stolen_are_kept(monkeypatch):
    assert _sampler(monkeypatch, [0.9, 5.0, 0.0, 0.5]) == [2, 3, 0]


def test_job_percentiles_take_each_jobs_median_across_samples():
    def sample(hiccup):
        return {"jobs": [[f"j{i}", hiccup or i / 1000, 100] for i in range(60)],
                "t_start": 0.0, "t_done": 1.0, "setup": [0.3],
                "peak_rss_mb": 40.0}
    metrics = offline.offline_metrics([sample(0), sample(9.0), sample(0)])
    assert metrics["p50_ms"] == (pytest.approx(29.0), "ms")
    assert metrics["branches_per_s"] == (6000.0, "1/s")


# -- self time --------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        ["a", None, "sweep.inline", 0.0, 10.0],
        ["b", "a", "planes.compute", 2.0, 6.0],
        ["c", "b", "kernels.tage", 3.0, 4.0],
        ["d", "a", "cache.store", 7.0, 8.0],
    ]
    seconds = tracing.attribute(spans, -1.0, 11.0)
    assert seconds == pytest.approx({
        "sweep.inline": 5.0, "planes.compute": 3.0, "kernels.tage": 1.0,
        "cache.store": 1.0, "other": 2.0,
    })
    assert sum(seconds.values()) == pytest.approx(12.0)


def test_concurrent_workers_share_each_instant_and_sum_to_wall():
    spans = [
        ["pool", None, "sweep.pool", 0.0, 10.0],
        ["w1", "pool", "kernels.gehl", 1.0, 5.0],
        ["w2", "pool", "traces.synth", 3.0, 7.0],
    ]
    seconds = tracing.attribute(spans, 0.0, 10.0)
    assert seconds == pytest.approx({
        "sweep.pool": 4.0, "kernels.gehl": 3.0, "traces.synth": 3.0,
    })


def test_spans_are_clipped_to_the_window():
    spans = [["a", None, "serve.step", 0.0, 10.0]]
    assert tracing.attribute(spans, 4.0, 6.0) == pytest.approx(
        {"serve.step": 2.0})


def test_layer_metrics_report_every_layer_and_reject_unknown_spans():
    metrics = tracing.layer_metrics([["a", None, "apps", 1.0, 2.0]], {},
                                    0.0, 3.0)
    assert metrics["apps.s"] == (pytest.approx(1.0), "s")
    assert metrics["other_s"] == (pytest.approx(2.0), "s")
    assert metrics["serve.requests"] == (0, "count")
    assert metrics["traced_wall_s"] == (3.0, "s")
    with pytest.raises(ValueError, match="without a layer"):
        tracing.layer_metrics([["a", None, "mystery", 1.0, 2.0]], {}, 0.0, 3.0)


def _forked_worker(recorder):
    with recorder.span("kernels.tage"):
        recorder.count("kernels.cell_branches", 5)
    recorder.dump()


def test_forked_workers_write_span_files_that_merge_under_the_parent(tmp_path):
    recorder = tracing.Recorder(tmp_path)
    ctx = multiprocessing.get_context("fork")
    with recorder.span("sweep.pool") as pool:
        worker = ctx.Process(target=_forked_worker, args=(recorder,))
        worker.start()
        worker.join(30)
    assert worker.exitcode == 0
    recorder.dump()
    spans, counts = tracing.load_spans(tmp_path)
    by_name = {span[2]: span for span in spans}
    assert by_name["kernels.tage"][1] == pool[0]
    assert by_name["kernels.tage"][0].startswith(f"{worker.pid}.")
    assert counts["kernels.cell_branches"] == 5
    assert len(list(tmp_path.glob("spans-*.json"))) == 2


# -- output checks ----------------------------------------------------------

PAPER_EXPECTED = {"n_jobs": 484, "n_executed": 462,
                  "digests": {"PAPER_RESULTS.md": "aa", "paper_results.json": "bb"}}


def _paper_report(**changes):
    report = {
        "exit_codes": [0],
        "stdout": ["16 artifact(s), 484 sweep jobs (22 cached, 462 executed) "
                   "on the fast backend in 9.00s\n"],
        "digests": dict(PAPER_EXPECTED["digests"]),
    }
    report.update(changes)
    return report


def test_paper_outputs_matching_the_pins_pass():
    assert offline.paper_failures(_paper_report(), PAPER_EXPECTED) == 0


def test_a_corrupted_paper_digest_fails_every_job():
    corrupted = dict(PAPER_EXPECTED, digests={
        "PAPER_RESULTS.md": "aa", "paper_results.json": "cc"})
    assert offline.paper_failures(_paper_report(), corrupted) == 484


def test_a_warm_paper_run_fails_every_job():
    warm = _paper_report(stdout=[
        "16 artifact(s), 484 sweep jobs (484 cached, 0 executed)\n"])
    assert offline.paper_failures(warm, PAPER_EXPECTED) == 484


def test_quarantined_sweep_jobs_count_as_failed():
    stdout = ("quarantine: job 3 (x) deterministic\n"
              "cli-sweep [ab]: 4 jobs (0 cached, 4 executed) with 1 workers\n"
              "trace\tpredictor\nt\tp\n")
    report = {"exit_codes": [0], "stdout": [stdout]}
    digest = harness.sha256_text("trace\tpredictor\nt\tp")
    assert offline.sweep_failures(report, 4, digest) == 1
    assert offline.sweep_failures(report, 4, "0" * 64) == 4


def test_reference_rows_missing_from_the_fast_rows_are_counted():
    fast = ["header", "a\t1", "b\t2"]
    assert offline.reference_mismatches(fast, ["header", "b\t2"]) == 0
    assert offline.reference_mismatches(fast, ["header", "b\t3"]) == 1


def test_one_corrupted_served_decision_fails_one_request():
    expected = [(b"\x01\x00", b"\x03\x04"), (b"\x01\x01", b"\x02\x02")]
    answers = [list(expected), list(expected)]
    assert serving.failed_requests(answers, expected) == 0
    answers[1][1] = (b"\x01\x01", b"\x02\x05")
    assert serving.failed_requests(answers, expected) == 1
    answers[0][0] = None  # refused (REJECTED or TIMEOUT)
    assert serving.failed_requests(answers, expected) == 2


# -- isolation --------------------------------------------------------------

SWEEP = ["sweep", "--predictors", "gshare", "--estimators", "jrs",
         "--traces", "INT-1", "--branches", "2000", "--workers", "1",
         "--backend", "fast", "--tsv"]


def _plant(decoy: Path) -> None:
    """A loadable cache entry for SWEEP's only job, marked by its time."""
    from repro.sweep.cache import ResultCache
    from repro.sweep.executor import execute_job
    from repro.sweep.grid import expand
    from repro.sweep.spec import EstimatorSpec, ExperimentSpec, PredictorSpec

    spec = ExperimentSpec(
        name="cli-sweep", predictors=(PredictorSpec.parse("gshare"),),
        estimators=(EstimatorSpec.of("jrs"),), traces=("INT-1",),
        n_branches=2000, backend="fast",
    )
    (job,) = expand(spec).jobs
    cache = ResultCache(decoy)
    cache.store(job, replace(execute_job(job), elapsed=12345.0))
    assert cache.load(job) is not None


def test_a_planted_decoy_cache_entry_is_never_hit(tmp_path, monkeypatch):
    decoy = tmp_path / "decoy"
    _plant(decoy)
    # Control: the plain CLI with the decoy as its cache serves the plant.
    control = subprocess.run(
        [sys.executable, "-m", "repro", *SWEEP], capture_output=True,
        text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(harness.SRC),
                 REPRO_CACHE_DIR=str(decoy)),
    )
    assert "cache: 1 hits, 0 misses" in control.stdout

    # The benchmark's sandbox ignores the inherited cache setting, and
    # a default .repro-cache under the sandbox starts empty.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(decoy))
    harness.KERNELS.mkdir(parents=True, exist_ok=True)
    sandbox = harness.Sandbox(tmp_path, "sample")
    _, report = harness.run_child(
        "run", {"argvs": [SWEEP], "out": str(sandbox.out),
                "cache": str(sandbox.cache)}, sandbox)
    assert report["provider"] == harness.PROVIDER
    assert "cache: 0 hits, 1 misses" in report["stdout"][0]
    assert [elapsed for _, elapsed, _ in report["jobs"]] != [12345.0]
    assert len(report["jobs"]) == 1


def test_the_run_fails_without_a_result_when_the_source_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert result.returncode != 0
    assert result.stdout == ""
    assert not (tmp_path / ".bench_build").exists()
