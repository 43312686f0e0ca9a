"""Shared pieces of the benchmark: statistics, isolation, child processes,
output digests and the result line.

Only the benchmark process imports this module.  The program under test
always runs in fresh child processes (``child.py`` or ``repro serve``)
with an isolated environment, so nothing the benchmark process imports
or caches can leak into a measurement.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under this (git-ignored) directory.
WORK = ROOT / ".bench_build"
#: Benchmark-owned cache of the compiled C kernel (REPRO_COMPILED_CACHE).
KERNELS = WORK / "kernels"
CHILD = PERFBENCH / "child.py"
EXPECTED = PERFBENCH / "expected.json"

#: The compiled-kernel provider every sample must run on.  A silent
#: pure-Python fallback would read as a ~14x regression, so anything
#: else fails the run instead.
PROVIDER = "cext"

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10
#: Extra fresh starts per sample for ``setup_s``: one start takes under
#: half a second, so the sample's own start alone would be too few.
SETUP_PROBES = 1


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def nearest_rank(samples, q: float):
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of all samples at or below it (``0 < q <= 100``)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(len(ordered) * Fraction(str(q)) / 100)
    return ordered[rank - 1]


def tail_percentile(samples, q: float, min_beyond: int = MIN_BEYOND):
    """:func:`nearest_rank`, refused unless ``min_beyond`` samples lie
    beyond the percentile (p99 needs at least 1000 samples)."""
    n = len(samples)
    rank = math.ceil(n * Fraction(str(q)) / 100)
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {min_beyond}"
        )
    return nearest_rank(samples, q)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver takes them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Isolation.
# ---------------------------------------------------------------------------

def require_source() -> None:
    """Fail (no result) unless the program's source tree is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program source at {SRC}; run from the root of a checkout"
        )


class Sandbox:
    """One sample's private directories: home, result cache, outputs.

    The child runs with its working directory here, so a default
    ``.repro-cache/`` would land (empty) inside the sandbox too.
    """

    def __init__(self, parent: Path, label: str) -> None:
        self.root = parent / label
        if self.root.exists():
            shutil.rmtree(self.root)
        self.home = self.root / "home"
        self.cache = self.root / "cache"
        self.out = self.root / "out"
        self.trace_dir = self.root / "spans"
        for directory in (self.home, self.out, self.trace_dir):
            directory.mkdir(parents=True)

    def env(self) -> dict[str, str]:
        return isolated_env(self.home, self.cache)

    def __enter__(self) -> "Sandbox":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def isolated_env(home: Path, cache: Path) -> dict[str, str]:
    """The child environment: the checkout's source, a private home and
    result cache, the benchmark-owned kernel cache and a pinned provider.

    Every inherited ``REPRO_*`` setting is dropped so a developer's
    shell cannot change what is measured, and ``HOME``/``XDG_CACHE_HOME``
    point into the sandbox so ``~/.cache`` is never read.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONNOUSERSITE="1",
        HOME=str(home),
        XDG_CACHE_HOME=str(home / ".cache"),
        REPRO_CACHE_DIR=str(cache),
        REPRO_COMPILED_CACHE=str(KERNELS),
        REPRO_COMPILED_PROVIDER=PROVIDER,
    )
    return env


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------

def child_command(mode: str, config: dict | None = None) -> list[str]:
    return [sys.executable, str(CHILD), mode, json.dumps(config or {})]


def run_child(mode: str, config: dict, sandbox: Sandbox,
              timeout: float = 170.0) -> tuple[float, dict]:
    """Spawn one fresh child and wait for it; returns (spawn time, the
    JSON object it printed last).  Clock: ``time.monotonic``, which is
    system-wide on Linux, so child stamps compare with the spawn time."""
    log = sandbox.root / f"{mode}.log"
    with log.open("w") as handle:
        spawned = time.monotonic()
        process = subprocess.Popen(
            child_command(mode, config), cwd=sandbox.root, env=sandbox.env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=handle,
            text=True,
        )
        try:
            stdout, _ = process.communicate(timeout=timeout)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = log.read_text()[-2000:]
        raise BenchmarkError(
            f"child {mode} exited {process.returncode}:\n{tail}"
        )
    return spawned, json.loads(lines[-1])


def probe_setup(sandbox: Sandbox) -> float:
    """One fresh start of the offline program: seconds from spawn until
    ``repro`` is imported and the compiled provider is loaded."""
    spawned, ready = run_child("ready", {}, sandbox, timeout=60.0)
    check_provider(ready["provider"])
    return ready["t_ready"] - spawned


def setup_probes(runs_dir: Path, index: int, probe) -> list[float]:
    """``SETUP_PROBES`` fresh starts, each in its own sandbox."""
    results = []
    for number in range(SETUP_PROBES):
        with Sandbox(runs_dir, f"probe-{index}-{number}") as sandbox:
            results.append(probe(sandbox))
    return results


def check_provider(provider) -> None:
    if provider != PROVIDER:
        raise BenchmarkError(
            f"compiled-kernel provider is {provider!r}, expected "
            f"{PROVIDER!r}; refusing to measure a fallback"
        )


def prepare(runs_dir: Path) -> None:
    """Build before the first timed sample: the C kernel lands in the
    benchmark-owned cache and the bytecode is compiled, so neither ever
    falls inside a timing."""
    require_source()
    KERNELS.mkdir(parents=True, exist_ok=True)
    with Sandbox(runs_dir, "prepare") as sandbox:
        _, ready = run_child("ready", {}, sandbox, timeout=600.0)
    check_provider(ready["provider"])


# ---------------------------------------------------------------------------
# Sampling on a shared host.
# ---------------------------------------------------------------------------

#: A sample during which the hypervisor stole more than this share of
#: the machine's CPU time is retried.  On a shared host, neighbours slow
#: every timing in bursts lasting minutes: one paper-cold sample took
#: 9.0 s with 0.3% of the CPU time stolen and 12.5 s with 12% stolen.
STEAL_LIMIT = 0.02
#: Samples a run may take beyond the quiet ones it needs.
EXTRA_ATTEMPTS = 1
#: No new sample starts after this long, so a run ends well within the
#: 180 s it may take and a full benchmark pass keeps to its time budget.
SAMPLING_CAP_S = 36.0


def steal_seconds() -> float:
    """CPU seconds the hypervisor has stolen from this machine so far,
    summed over its CPUs (``steal`` in ``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def quiet_samples(take, minimum: int, seconds: float) -> list:
    """Samples from ``take(index)``, taken until ``minimum`` of them ran
    with at most :data:`STEAL_LIMIT` stolen and ``seconds`` have passed,
    or :data:`EXTRA_ATTEMPTS` more than ``minimum`` were taken.  Returns
    the quiet samples, or the ``minimum`` least-stolen ones when fewer
    were quiet."""
    started = time.monotonic()
    taken = []
    while (len(taken) < minimum + EXTRA_ATTEMPTS
           and time.monotonic() - started < SAMPLING_CAP_S):
        stolen, began = steal_seconds(), time.monotonic()
        result = take(len(taken))
        share = ((steal_seconds() - stolen)
                 / ((time.monotonic() - began) * os.cpu_count()))
        log(f"  sample {len(taken)}: {share:.1%} of the CPU time stolen")
        taken.append((share, result))
        n_quiet = sum(1 for stolen, _ in taken if stolen <= STEAL_LIMIT)
        if n_quiet >= minimum and time.monotonic() - started >= seconds:
            break
    taken.sort(key=lambda item: item[0])
    quiet = [result for stolen, result in taken if stolen <= STEAL_LIMIT]
    return quiet if len(quiet) >= minimum else [r for _, r in taken[:minimum]]


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Outputs.
# ---------------------------------------------------------------------------

def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


@dataclass
class Tally:
    """Operations attempted and failed over a run."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def emit(tally: Tally, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
