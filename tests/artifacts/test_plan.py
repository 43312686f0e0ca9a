"""One planned execution per ``repro paper`` run.

Artifacts declare their grids up front; the pipeline plans the union,
runs it on one broker and one journal, and builders read their grids
back.  These tests hold the declarations to what the builders request,
count brokers and pools, interrupt and resume a paper run, and require
the reports to be invariant under the worker count.
"""

from __future__ import annotations

import os
import re
import signal
from collections import Counter

import pytest

from repro.artifacts import (
    ARTIFACT_KEYS,
    Scale,
    SweepService,
    get_artifact,
    run_paper,
    write_reports,
)
from repro.cli import main
from repro.sweep import JournalError, ResultCache, RunJournal, resume_sweep
from repro.sweep.broker import Broker

TINY = Scale(400)

#: A multi-grid subset with paper deltas, several ablation grids sharing
#: traces (lockstep-fusable across artifacts) and an application model.
RESUME_SUBSET = ("FIG4", "SEC62_PROB", "ABL_BIM_WINDOW", "APP_FETCH_GATING")


class RecordingService(SweepService):
    """A service that records every grid a builder reads back."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.requested: list = []

    def sweep(self, spec):
        self.requested.append(spec)
        return super().sweep(spec)


@pytest.fixture(scope="module")
def shared_service(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("plan") / "sweeps")
    return RecordingService(workers=1, cache=cache)


@pytest.mark.parametrize("key", ARTIFACT_KEYS)
def test_builder_requests_exactly_its_declared_grids(key, shared_service):
    """A builder that reads a grid it did not declare would run it
    outside the plan; one that declares a grid it never reads wastes
    the plan's work."""
    spec = get_artifact(key)
    declared = {grid.spec_hash() for grid in spec.grids(TINY)}
    shared_service.execute(spec.grids(TINY))
    executed = len(shared_service.runs)
    start = len(shared_service.requested)
    spec.build(shared_service, TINY)
    requested = {grid.spec_hash() for grid in shared_service.requested[start:]}
    assert requested == declared
    assert len(shared_service.runs) == executed  # nothing ran on demand


def test_quick_run_uses_one_broker_run_and_one_pool(tmp_path, monkeypatch):
    pytest.importorskip("numpy")
    calls = Counter()
    run, run_pool = Broker.run, Broker._run_pool

    def counted_run(self, pending):
        calls["run"] += 1
        return run(self, pending)

    def counted_pool(self, pending):
        calls["pool"] += 1
        return run_pool(self, pending)

    monkeypatch.setattr(Broker, "run", counted_run)
    monkeypatch.setattr(Broker, "_run_pool", counted_pool)
    lines: list[str] = []
    paper = run_paper(
        scale=Scale.quick(), workers=2, backend="fast",
        cache=ResultCache(tmp_path / "sweeps"), progress=lines.append,
    )
    assert calls == {"run": 1, "pool": 1}
    assert paper.n_executed > 0
    assert paper.n_jobs == paper.n_cached + paper.n_executed
    assert not (tmp_path / "sweeps" / "planes").exists()
    assert any(line.startswith("lockstep: fused") for line in lines)
    assert len(list((tmp_path / "sweeps" / "runs").glob("*.jsonl"))) == 1


def _paper_cli(tmp_path, cache, out, *extra):
    return main([
        "paper", "--only", *RESUME_SUBSET, "--branches", "400",
        "--workers", "1", "--cache-dir", str(tmp_path / cache),
        "--out", str(tmp_path / out), *extra,
    ])


def test_interrupted_paper_run_resumes_byte_identical(tmp_path, monkeypatch, capsys):
    """SIGINT after the first journaled completion, then ``--resume``:
    one journal, and reports identical to an uninterrupted run."""
    assert _paper_cli(tmp_path, "reference-cache", "reference") == 0

    job_done = RunJournal.job_done
    interrupted = []

    def interrupting_job_done(self, *args):
        job_done(self, *args)
        if not interrupted:
            interrupted.append(True)
            os.kill(os.getpid(), signal.SIGINT)

    monkeypatch.setattr(RunJournal, "job_done", interrupting_job_done)
    assert _paper_cli(tmp_path, "cache", "out", "--run-id", "X") == 130
    monkeypatch.setattr(RunJournal, "job_done", job_done)
    assert "resume with: repro paper --run-id X --resume" in capsys.readouterr().out

    assert _paper_cli(tmp_path, "cache", "out", "--run-id", "X", "--resume") == 0
    out = capsys.readouterr().out
    assert "resume X: journal records" in out
    # The jobs journaled before the interrupt came from the cache.
    cached, executed = map(int, re.search(
        r"sweep jobs \((\d+) cached, (\d+) executed\)", out).groups())
    assert cached > 0 and executed > 0

    runs = tmp_path / "cache" / "runs"
    assert [path.name for path in runs.iterdir()] == ["X.jsonl"]
    for name in ("PAPER_RESULTS.md", "paper_results.json"):
        assert (tmp_path / "out" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes()


def test_paper_journal_refused_by_sweep_resume(tmp_path):
    assert _paper_cli(tmp_path, "cache", "out", "--run-id", "P") == 0
    cache = ResultCache(tmp_path / "cache")
    with pytest.raises(JournalError, match="repro paper --run-id P --resume"):
        resume_sweep("P", cache=cache)
    with pytest.raises(SystemExit, match="repro paper --run-id P --resume"):
        main(["sweep", "--resume", "P", "--cache-dir", str(cache.root)])


def test_resume_rejects_a_different_selection(tmp_path):
    assert _paper_cli(tmp_path, "cache", "out", "--run-id", "S") == 0
    with pytest.raises(SystemExit, match="records spec"):
        main(["paper", "--only", "FIG4", "--branches", "400", "--workers", "1",
              "--cache-dir", str(tmp_path / "cache"), "--out",
              str(tmp_path / "out"), "--run-id", "S", "--resume"])


def test_reports_invariant_under_worker_count(tmp_path):
    """Adding workers never changes a byte of the reports."""
    outputs = {}
    for workers in (1, 2):
        paper = run_paper(scale=TINY, workers=workers, cache=None)
        md, js = write_reports(paper, tmp_path / f"w{workers}")
        outputs[workers] = (md.read_bytes(), js.read_bytes())
    assert outputs[1] == outputs[2]
