"""Execution plans: deduplication, accounting, one journal, dispatch order."""

from __future__ import annotations

import pytest

from repro.sweep import (
    EstimatorSpec,
    ExperimentSpec,
    JournalError,
    PredictorSpec,
    ResultCache,
    journal_path,
    replay_journal,
    resume_sweep,
    run_sweep,
)
from repro.sweep.broker import _ReadyQueue
from repro.sweep.executor import ExecutionPlan, execute_plan

N_BRANCHES = 600


def make_spec(name="plan", traces=("INT-1", "MM-1", "SERV-1"), **overrides):
    options = dict(
        name=name,
        predictors=(PredictorSpec.of("gshare"), PredictorSpec.of("bimodal")),
        estimators=(EstimatorSpec.of("jrs"),),
        traces=traces,
        n_branches=N_BRANCHES,
    )
    options.update(overrides)
    return ExperimentSpec(**options)


#: Two grids sharing the INT-1 cells, plus a duplicate of the first.
FULL = make_spec("full")
SUBSET = make_spec("subset", traces=("INT-1", "FP-1"))


def test_plan_dedupes_grids_and_cells():
    plan = ExecutionPlan.of((FULL, SUBSET, FULL))
    assert plan.keys == (FULL.spec_hash(), SUBSET.spec_hash())
    assert plan.describe() == "plan: 2 grid(s), 10 cells, 8 distinct jobs"
    assert len(plan.jobs) == 8  # SUBSET's two INT-1 cells are FULL's
    assert plan.cells[1][:2] == plan.cells[0][:2]
    assert plan.owners[plan.cells[1][0]] == (0, 0)
    assert len({job.spec_hash() for job in plan.jobs}) == 8


def test_one_grid_plan_is_the_grid():
    plan = ExecutionPlan.of((FULL,))
    assert plan.as_dict() == FULL.as_dict()
    assert plan.plan_hash() == FULL.spec_hash()
    assert plan.describe() == plan.expansions[0].describe()
    with pytest.raises(ValueError):
        ExecutionPlan.of(())


def test_plan_accounting_credits_each_job_once():
    runs = execute_plan(ExecutionPlan.of((FULL, SUBSET)), workers=1)
    assert list(runs) == [FULL.spec_hash(), SUBSET.spec_hash()]
    full, subset = runs.values()
    assert (full.n_executed, full.n_cached) == (6, 0)
    assert (subset.n_executed, subset.n_cached) == (2, 2)
    # Each grid's table is exactly what running it alone produces.
    assert full.table.to_tsv() == run_sweep(FULL).table.to_tsv()
    assert subset.table.to_tsv() == run_sweep(SUBSET).table.to_tsv()


def test_quarantine_maps_back_to_grid_cells(tmp_path):
    # Plan index 6 is SUBSET's first own cell (FP-1 x gshare), grid cell 2.
    full, subset = execute_plan(
        ExecutionPlan.of((FULL, SUBSET)), workers=1,
        cache=ResultCache(tmp_path), faults="poison@6",
    ).values()
    assert [entry.index for entry in subset.quarantined] == [2]
    assert len(subset.table) == 3
    assert not full.quarantined


def test_multi_grid_plan_writes_one_journal(tmp_path):
    cache = ResultCache(tmp_path)
    runs = execute_plan(ExecutionPlan.of((FULL, SUBSET)), workers=2,
                        cache=cache, run_id="both")
    assert [path.name for path in (tmp_path / "runs").iterdir()] == ["both.jsonl"]
    state = replay_journal(journal_path(tmp_path / "runs", "both"), "both")
    assert state.ended and set(state.done) == set(range(8))
    assert state.spec_dict == {"plan": [FULL.spec_hash(), SUBSET.spec_hash()]}
    assert {run.run_id for run in runs.values()} == {"both"}
    with pytest.raises(JournalError, match="repro paper"):
        resume_sweep("both", cache=cache)


def test_ready_queue_runs_each_trace_back_to_back():
    """In process, one worker: units come out trace by trace in
    first-appearance order, whatever order they were planned in."""
    plan = ExecutionPlan.of((FULL, SUBSET))
    units = list(enumerate(plan.jobs))[::-1]
    ready = _ReadyQueue(units)
    order, trace = [], None
    while ready:
        index = ready.pop(trace)
        trace = plan.jobs[index].trace_key
        order.append(index)
    assert order == [7, 6, 5, 4, 3, 2, 1, 0]
    assert [plan.jobs[i].trace for i in order[::2]] == [
        "FP-1", "SERV-1", "MM-1", "INT-1"]


def test_ready_queue_keeps_workers_on_their_trace():
    plan = ExecutionPlan.of((FULL,))
    ready = _ReadyQueue(list(enumerate(plan.jobs)))

    def trace(index):
        return plan.jobs[index].trace_key

    # A fresh worker takes the first trace; the next one a different trace.
    a = ready.pop(None)
    b = ready.pop(None, {trace(a)})
    assert (plan.jobs[a].trace, plan.jobs[b].trace) == ("INT-1", "MM-1")
    # Each then drains its own trace before moving on.
    assert plan.jobs[ready.pop(trace(a), {trace(b)})].trace == "INT-1"
    assert plan.jobs[ready.pop(trace(b), {trace(a)})].trace == "MM-1"
    assert plan.jobs[ready.pop(trace(a), {trace(b)})].trace == "SERV-1"
    ready.push_front(a)
    assert ready.pop(trace(a), {trace(b)}) == a  # requeued work goes first
    # Every queued trace is taken: join the longest backlog.
    assert plan.jobs[ready.pop(trace(b), {("SERV-1", N_BRANCHES)})].trace == "SERV-1"
    assert not ready


def test_cold_plan_hashes_each_job_once(tmp_path, monkeypatch):
    """The plan's spec hashes are the only ones a run computes: the
    journal's ``begin`` record, the cache probe, the commit thread's
    stores and ``done`` records all take them from the plan."""
    from repro.sweep.spec import JobSpec

    calls = []
    spec_hash = JobSpec.spec_hash
    monkeypatch.setattr(JobSpec, "spec_hash",
                        lambda job: calls.append(job) or spec_hash(job))
    plan = ExecutionPlan.of((FULL, SUBSET))
    assert len(calls) == sum(map(len, plan.cells)) == 10
    calls.clear()
    runs = execute_plan(plan, workers=1, cache=ResultCache(tmp_path / "cache"))
    assert sum(run.n_executed for run in runs.values()) == len(plan.jobs) == 8
    assert calls == []
    assert len(ResultCache(tmp_path / "cache")) == 8
    [journal] = (tmp_path / "cache" / "runs").glob("*.jsonl")
    state = replay_journal(journal, journal.stem)
    assert list(state.job_hashes) == list(plan.hashes)
    assert sorted(state.done.values()) == sorted(plan.hashes)
