"""The offline workloads: ``paper-cold`` and ``sweep-replay``.

Each sample is one fresh child process (``child.py run``) with its own
sandbox: an empty result cache, an output directory and a private home.
Set-up (spawn until ready) is excluded from ``wall_s`` and measured on
its own, from the sample's child plus ``harness.SETUP_PROBES`` extra
fresh starts per sample.  An operation is a sweep job: its latency is
the execution time the program records for it (``JobResult.elapsed``),
read back from the sample's result cache after the timing.
"""

from __future__ import annotations

import re
import zlib
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from harness import (
    BenchmarkError, Sandbox, Tally, check_provider, load_expected, log,
    median, nearest_rank, probe_setup, quiet_samples, run_child,
    setup_probes, sha256_text,
)

#: Quiet samples a run reports the median of.
MIN_SAMPLES = 3

PAPER_ARGV = ["paper", "--quick", "--backend", "fast", "--workers", "2"]
PAPER_OUTPUTS = ("PAPER_RESULTS.md", "paper_results.json")
_PAPER_SUMMARY = re.compile(
    r"(\d+) artifact\(s\), (\d+) sweep jobs \((\d+) cached, (\d+) executed\)"
)
_SWEEP_SUMMARY = re.compile(r"(\d+) jobs \((\d+) cached, (\d+) executed\)")

#: The sweep-replay grid: TAGE in the standard and probabilistic
#: variants (lockstep-fused C kernel) plus gshare, perceptron and
#: O-GEHL, with every compatible estimator among tage/jrs/self.
SWEEP_PREDICTORS = ("tage-16K", "tage-64K", "tage-16K-prob", "tage-64K-prob",
                    "gshare", "perceptron", "ogehl")
SWEEP_ESTIMATORS = ("tage", "jrs", "self")
#: One generated RTRC file per profile, ``SWEEP_BRANCHES`` records each.
SWEEP_PROFILES = ("INT-1", "FP-2", "MM-3", "SERV-4")
SWEEP_BRANCHES = 100_000
#: One cell per predictor family, re-run on the reference backend for
#: seeds without a pinned digest.
REFERENCE_CELLS = (("tage-16K", "tage"), ("gshare", "jrs"),
                   ("perceptron", "self"), ("ogehl", "jrs"))


def offline_metrics(samples: list[dict]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics over a run's samples.

    Each job's latency is the median of its times across the samples,
    so a hiccup in one sample cannot move ``p50_ms``, the median over
    those per-job medians.
    """
    per_job = defaultdict(list)
    for sample in samples:
        for key, elapsed, _ in sample["jobs"]:
            per_job[key].append(elapsed)
    job_s = [median(times) for times in per_job.values()]
    walls = [sample["t_done"] - sample["t_start"] for sample in samples]
    branches = [sum(n for _, _, n in sample["jobs"]) for sample in samples]
    return {
        "setup_s": (median([t for sample in samples for t in sample["setup"]]), "s"),
        "wall_s": (median(walls), "s"),
        "branches_per_s": (median([n / wall for n, wall in zip(branches, walls)]), "1/s"),
        "p50_ms": (nearest_rank(job_s, 50) * 1e3, "ms"),
        "peak_rss_mb": (median([sample["peak_rss_mb"] for sample in samples]), "MB"),
    }


def tsv_rows(stdout: str) -> list[str]:
    """The tab-separated result rows (header included) of ``--tsv``."""
    return [line for line in stdout.splitlines() if "\t" in line]


def count_quarantined(stdout: str) -> int:
    return sum(1 for line in stdout.splitlines()
               if line.startswith("quarantine:"))


def paper_failures(report: dict, expected: dict) -> int:
    """Failed jobs of one paper-cold sample: every quarantined job, and
    every job when the outputs or the cold-run accounting differ from
    the pinned values (a warm cache would show as fewer executions)."""
    n_jobs = expected["n_jobs"]
    stdout = report["stdout"][0]
    summary = _PAPER_SUMMARY.search(stdout)
    healthy = (
        report["exit_codes"] == [0]
        and summary is not None
        and int(summary[2]) == n_jobs
        and int(summary[4]) == expected["n_executed"]
        and report["digests"] == expected["digests"]
    )
    return n_jobs if not healthy else min(n_jobs, count_quarantined(stdout))


def sweep_failures(report: dict, n_jobs: int, digest: str) -> int:
    """Failed jobs of one sweep-replay sample against the expected
    digest of its result rows: every quarantined job, and every job on
    a digest mismatch."""
    stdout = report["stdout"][0]
    summary = _SWEEP_SUMMARY.search(stdout)
    healthy = (
        report["exit_codes"] == [0]
        and summary is not None
        and int(summary[1]) == n_jobs
        and int(summary[3]) == n_jobs
        and sha256_text("\n".join(tsv_rows(stdout))) == digest
    )
    return n_jobs if not healthy else min(n_jobs, count_quarantined(stdout))


def reference_mismatches(fast_rows: list[str], reference_rows: list[str]) -> int:
    """Reference-backend rows missing from the fast run's rows."""
    fast = set(fast_rows[1:])
    return sum(1 for row in reference_rows[1:] if row not in fast)


class PaperCold:
    """``repro paper --quick --backend fast --workers 2`` on an empty cache."""

    name = "paper-cold"

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.expected = load_expected()[self.name]

    def config(self, sandbox: Sandbox) -> dict:
        argv = PAPER_ARGV + ["--cache-dir", str(sandbox.cache),
                             "--out", str(sandbox.out)]
        return {"argvs": [argv], "out": str(sandbox.out),
                "outputs": list(PAPER_OUTPUTS), "cache": str(sandbox.cache)}

    def check(self, report: dict) -> tuple[int, int]:
        return self.expected["n_jobs"], paper_failures(report, self.expected)

    def finish(self, runs_dir: Path) -> int:
        return 0


class SweepReplay:
    """A mixed fast-backend grid, in process, over generated RTRC files."""

    name = "sweep-replay"

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.traces = write_sweep_traces(run_dir / "inputs", seed)
        expected = load_expected()[self.name]
        self.n_jobs = expected["n_jobs"]
        self.pinned = expected["digests"].get(str(seed))
        self.digest = self.pinned
        self.rows: list[str] | None = None

    def argv(self, extra: list[str]) -> list[str]:
        return ["sweep", "--workers", "1", "--branches", str(SWEEP_BRANCHES),
                "--tsv", *extra]

    def config(self, sandbox: Sandbox) -> dict:
        argv = self.argv([
            "--backend", "fast",
            "--predictors", *SWEEP_PREDICTORS,
            "--estimators", *SWEEP_ESTIMATORS,
            "--traces", *self.traces,
            "--cache-dir", str(sandbox.cache),
        ])
        return {"argvs": [argv], "out": str(sandbox.out),
                "cache": str(sandbox.cache)}

    def check(self, report: dict) -> tuple[int, int]:
        if self.digest is None:
            # No pinned rows for this seed: the first sample's rows are
            # checked against the reference backend in finish(), and
            # every later sample must reproduce them exactly.
            self.rows = tsv_rows(report["stdout"][0])
            self.digest = sha256_text("\n".join(self.rows))
        return self.n_jobs, sweep_failures(report, self.n_jobs, self.digest)

    def finish(self, runs_dir: Path) -> int:
        """Re-run one cell per predictor family on the reference backend
        (outside any timing) for seeds without a pinned digest; each
        mismatching cell counts one failed job."""
        if self.pinned is not None or self.rows is None:
            return 0
        argvs = [
            self.argv(["--backend", "reference", "--predictors", predictor,
                       "--estimators", estimator, "--traces", self.traces[0],
                       "--no-cache"])
            for predictor, estimator in REFERENCE_CELLS
        ]
        with Sandbox(runs_dir, "reference") as sandbox:
            _, report = run_child("run", {"argvs": argvs,
                                          "out": str(sandbox.out)}, sandbox)
        failed = 0
        for code, stdout in zip(report["exit_codes"], report["stdout"]):
            rows = tsv_rows(stdout)
            if code != 0 or len(rows) != 2:
                failed += 1
            else:
                failed += reference_mismatches(self.rows, rows)
        return failed


WORKLOADS = {workload.name: workload for workload in (PaperCold, SweepReplay)}


def write_sweep_traces(directory: Path, seed: int) -> list[str]:
    """Write the seed's RTRC inputs through the public trace writer;
    returns their ``file:`` names relative to a sample's directory."""
    from repro.traces import SyntheticWorkload, trace_spec, write_trace

    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for index, profile in enumerate(SWEEP_PROFILES):
        spec = replace(
            trace_spec(profile),
            name=f"replay-{index}",
            seed=zlib.crc32(f"perfbench/sweep/{seed}/{index}".encode()),
        )
        path = directory / f"trace-{index}.rtrc"
        write_trace(SyntheticWorkload(spec).generate(SWEEP_BRANCHES), path)
        names.append(f"file:../{directory.name}/{path.name}")
    return names


def run_offline(name: str, seed: int, seconds: int, traced: bool,
                runs_dir: Path) -> tuple[Tally, dict]:
    """Untraced: :data:`MIN_SAMPLES` quiet samples (see
    ``harness.quiet_samples``) and the end-to-end metrics.  Traced: one
    untraced sample for the overhead estimate, then one traced sample
    for the layer split."""
    workload = WORKLOADS[name](seed, runs_dir)
    tally = Tally()

    def take(index: int) -> dict:
        setup = setup_probes(runs_dir, index, probe_setup)
        with Sandbox(runs_dir, f"sample-{index}") as sandbox:
            report = sample(workload, sandbox, tally)
        report["setup"] = setup + [report["setup_s"]]
        log(f"{name}: sample {index} wall "
            f"{report['t_done'] - report['t_start']:.3f} s")
        return report

    if not traced:
        samples = quiet_samples(take, MIN_SAMPLES, seconds)
        tally.add(0, workload.finish(runs_dir))
        return tally, offline_metrics(samples)

    from tracing import layer_metrics, load_spans

    untraced = take(0)
    with Sandbox(runs_dir, "traced") as sandbox:
        report = sample(workload, sandbox, tally, traced=True)
        spans, counts = load_spans(sandbox.trace_dir)
    metrics = layer_metrics(spans, counts, report["t_start"], report["t_done"])
    metrics["setup.import_s"] = (report["import_s"], "s")
    metrics["setup.kernel_load_s"] = (report["kernel_load_s"], "s")
    metrics["trace_overhead_s"] = (
        (report["t_done"] - report["t_start"])
        - (untraced["t_done"] - untraced["t_start"]), "s"
    )
    metrics["serve.p99_ms"] = (0.0, "ms")  # no requests offline
    tally.add(0, workload.finish(runs_dir))
    return tally, metrics


def sample(workload, sandbox: Sandbox, tally: Tally, traced: bool = False) -> dict:
    """One fresh-process sample; adds its jobs to the tally."""
    config = workload.config(sandbox)
    if traced:
        config["trace_dir"] = str(sandbox.trace_dir)
    spawned, report = run_child("run", config, sandbox)
    check_provider(report["provider"])
    report["setup_s"] = report["t_ready"] - spawned
    attempted, failed = workload.check(report)
    if failed:
        log(f"{workload.name}: {sandbox.root.name}: {failed} of {attempted} "
            "jobs failed")
    tally.add(attempted, failed)
    if not report["jobs"]:
        raise BenchmarkError(f"{workload.name}: {sandbox.root.name} stored no jobs")
    return report
