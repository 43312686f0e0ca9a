"""Crash-recovery integration: SIGINT a real ``repro sweep`` subprocess
mid-run, resume it, and require the result byte-identical to an
uninterrupted run — the journal proving only unfinished jobs re-ran.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.sweep import (
    EstimatorSpec,
    ExperimentSpec,
    JournalError,
    PredictorSpec,
    journal_path,
    replay_journal,
    run_sweep,
)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_BRANCHES = 6_000
TRACES = ("INT-1", "INT-2", "MM-1", "MM-2", "SERV-1", "SERV-2")
PREDICTORS = ("gshare", "bimodal")


def spec_for_cli() -> ExperimentSpec:
    """The exact spec the CLI invocation below builds."""
    return ExperimentSpec(
        name="cli-sweep",
        predictors=tuple(PredictorSpec.parse(p) for p in PREDICTORS),
        estimators=(EstimatorSpec.of("jrs"),),
        traces=TRACES,
        n_branches=N_BRANCHES,
    )


def sweep_argv(cache_dir, extra=()):
    return [
        sys.executable, "-m", "repro", "sweep",
        "--predictors", *PREDICTORS,
        "--estimators", "jrs",
        "--traces", *TRACES,
        "--branches", str(N_BRANCHES),
        "--workers", "2",
        "--cache-dir", str(cache_dir),
        "--tsv",
        *extra,
    ]


def run_cli(argv, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_FAULTS", None)
    return subprocess.run(
        argv, cwd=REPO, env=env, capture_output=True, text=True,
        timeout=timeout,
    )


def extract_tsv(stdout: str) -> str:
    """The contiguous TSV block (header + rows) from CLI output."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("trace\t"))
    end = start + 1
    while end < len(lines) and "\t" in lines[end]:
        end += 1
    return "\n".join(lines[start:end])


class TestSigintResume:
    def test_interrupt_resume_byte_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_id = "crash-test"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop("REPRO_FAULTS", None)

        process = subprocess.Popen(
            sweep_argv(cache_dir, extra=["--run-id", run_id]),
            cwd=REPO, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        # Interrupt once the journal shows real progress: >= 1 done and
        # not yet all 12.  Polling the journal (not stdout) is what a
        # human Ctrl-C races against too.
        journal = journal_path(cache_dir / "runs", run_id)
        deadline = time.monotonic() + 60
        interrupted_at = None
        try:
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break
                if journal.exists():
                    try:
                        state = replay_journal(journal, run_id)
                    except JournalError as error:
                        # Created but its begin record not yet written:
                        # the run has not started, keep polling.
                        if "no begin record" not in str(error):
                            raise
                        time.sleep(0.005)
                        continue
                    if 1 <= len(state.done) < 12:
                        interrupted_at = len(state.done)
                        process.send_signal(signal.SIGINT)
                        break
                time.sleep(0.005)
            stdout, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()

        if interrupted_at is None:
            pytest.skip("run finished before the interrupt landed")
        assert process.returncode == 130, stdout
        assert f"--resume {run_id}" in stdout

        state = replay_journal(journal, run_id)
        assert state.interrupted and not state.ended
        done_before = set(state.done)
        assert done_before and len(done_before) < 12

        resumed = run_cli(sweep_argv(cache_dir, extra=["--resume", run_id]))
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr

        # Journal-verified: the resumed run re-ran ONLY unfinished jobs.
        state = replay_journal(journal, run_id)
        assert state.ended
        assert set(state.done) == set(range(12))
        executed_after_resume = set(state.done) - done_before
        resumed_tsv = extract_tsv(resumed.stdout)
        assert f"cache: {len(done_before)} hits" in resumed.stdout
        assert f"{len(executed_after_resume)} executed" in resumed.stdout

        # Byte-identical to a never-interrupted run of the same spec.
        reference = run_sweep(spec_for_cli(), cache=None)
        assert resumed_tsv == reference.table.to_tsv()


class TestQuarantineExitCode:
    def test_partial_result_reports_and_exits_3(self, tmp_path):
        completed = run_cli(sweep_argv(
            tmp_path / "cache",
            extra=["--run-id", "q", "--faults", "poison@0"],
        ))
        assert completed.returncode == 3, completed.stdout + completed.stderr
        assert "QUARANTINED (1 job(s))" in completed.stdout
        assert "repro sweep --resume q" in completed.stdout
        # 11 healthy rows still delivered (header + 11 lines).
        assert len(extract_tsv(completed.stdout).splitlines()) == 12
