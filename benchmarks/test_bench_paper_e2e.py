"""End-to-end ``repro paper`` bench: cold quick runs at 1 and 2 workers,
plus a warm re-run on the populated cache.

Not a paper figure — this bench times the headline workflow the way a
user runs it: ``python -m repro paper --quick --backend fast --workers
N`` as a fresh process on an empty result cache, wall-clock around the
whole process.  Each leg runs :data:`ROUNDS` times and keeps its median
wall; a fresh process per run means no leg inherits another's trace
memo or plane files.

The whole registry runs as one planned execution: every artifact's
grids are deduplicated, lockstep-fused across artifacts and executed on
one worker pool.  The bench asserts that shape (one pool at 2 workers,
none at 1, fused jobs, byte-identical reports across worker counts) and
writes ``benchmarks/records/BENCH_paper_e2e.json``:

* ``wall_workers_1_s`` / ``wall_workers_2_s`` — median process walls;
* ``wall_warm_s`` — median wall of a second 2-worker run on each cold
  2-worker run's cache (every job served from it), whose reports must
  be byte-identical to the cold run's;
* ``calibration_s`` — median seconds of a fixed pure-Python loop
  (``conftest.calibrate``, no ``repro`` code) timed in the bench process
  before each round: how fast this machine runs the interpreter;
* ``relative_speed`` (the compared metric) — calibration_s / wall(2):
  the 2-worker cold run's speed in units of this machine's speed, so
  it rises whenever ``repro paper`` gets faster and is comparable
  across machines;
* ``parallel_speedup`` (information only) — wall(1) / wall(2), so 1.0
  means adding a worker costs nothing and more means it pays.  It is
  not compared: it falls whenever the 1-worker leg gains more than the
  2-worker leg, i.e. when a serial cost is cut;
* ``jobs_fused``, ``pools_spawned`` and ``distinct_traces`` of the
  2-worker leg, plus the run's job accounting;
* ``layers`` — the persistence of one more cold 2-worker run, counted
  by wrapping ``os.open``/``os.fsync`` in that process: the cache
  entries it committed, the commit groups they went out in (one cache
  directory fsync each) and its total fsyncs, which must not exceed
  one per entry plus two per group plus the journal's ``begin`` and
  ``end`` records.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from conftest import calibrate, emit, record, run_once  # noqa: F401

from repro.artifacts import REGISTRY, Scale
from repro.sweep import expand

ROOT = Path(__file__).resolve().parent.parent

#: Cold runs per leg; the median wall is recorded.
ROUNDS = 5
_FUSED = re.compile(r"^lockstep: fused (\d+) job\(s\)", re.MULTILINE)
_POOL = re.compile(r"^broker: \d+ unit\(s\) on a pool of", re.MULTILINE)
_SUMMARY = re.compile(
    r"(\d+) artifact\(s\), (\d+) sweep jobs \((\d+) cached, (\d+) executed\)"
)

#: ``python -c`` body: run the CLI (argv after the script name) while
#: counting the process's fsyncs by target, then print the counts as
#: the last stdout line.  Entries fsync their ``.tmp`` file and each
#: commit group fsyncs the cache directory.
_COUNT_FSYNCS = """
import json, os, sys
paths, counts = {}, {"entries": 0, "groups": 0, "fsyncs": 0}
real_open, real_fsync = os.open, os.fsync
cache_dir = os.path.abspath(sys.argv[sys.argv.index("--cache-dir") + 1])
def counting_open(path, flags, *args, **kwargs):
    fd = real_open(path, flags, *args, **kwargs)
    paths[fd] = os.path.abspath(os.fspath(path))
    return fd
def counting_fsync(fd):
    path = paths.get(fd, "")
    counts["fsyncs"] += 1
    counts["entries"] += path.endswith(".tmp")
    counts["groups"] += path == cache_dir
    return real_fsync(fd)
os.open, os.fsync = counting_open, counting_fsync
import repro.cli
code = repro.cli.main(sys.argv[1:])
print(json.dumps(counts))
sys.exit(code)
"""


def _paper_run(workers: int, root: Path,
               out_name: str = "out") -> tuple[float, str, bytes]:
    """One ``repro paper --quick`` process on ``root``'s result cache
    (cold when new): (wall, stdout, reports)."""
    out = root / out_name
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "repro", "paper", "--quick", "--backend",
            "fast", "--workers", str(workers), "--cache-dir",
            str(root / "cache"), "--out", str(out)]
    start = time.perf_counter()
    completed = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                               text=True, check=True)
    wall = time.perf_counter() - start
    reports = b"".join((out / name).read_bytes()
                       for name in ("PAPER_RESULTS.md", "paper_results.json"))
    return wall, completed.stdout, reports


def _commit_layers(root: Path) -> dict:
    """Entries, commit groups and fsyncs of one cold 2-worker run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", _COUNT_FSYNCS, "paper", "--quick",
            "--backend", "fast", "--workers", "2", "--cache-dir",
            str(root / "cache"), "--out", str(root / "out")]
    completed = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                               text=True, check=True)
    return json.loads(completed.stdout.splitlines()[-1])


def _distinct_traces(scale: Scale) -> int:
    return len({
        job.trace_key
        for spec in REGISTRY.values()
        for grid in spec.grids(scale)
        for job in expand(grid).jobs
    })


def test_paper_e2e_parallel_speedup(run_once, tmp_path):
    legs: dict[int, list[tuple[float, str, bytes]]] = {1: [], 2: []}
    warm: list[tuple[float, str, bytes]] = []
    calibrations: list[float] = []

    def measure():
        for round_index in range(ROUNDS):
            calibrations.append(calibrate())
            for workers in legs:
                root = tmp_path / f"w{workers}-r{round_index}"
                root.mkdir()
                legs[workers].append(_paper_run(workers, root))
            warm.append(_paper_run(2, tmp_path / f"w2-r{round_index}",
                                   "out-warm"))

    run_once(measure)

    walls = {workers: statistics.median(wall for wall, _, _ in runs)
             for workers, runs in legs.items()}
    wall_warm = statistics.median(wall for wall, _, _ in warm)
    calibration = statistics.median(calibrations)
    # Byte-identical reports across worker counts, rounds and warm runs.
    assert len({report for runs in (*legs.values(), warm)
                for _, _, report in runs}) == 1
    warm_summary = _SUMMARY.search(warm[0][1])
    assert int(warm_summary[4]) == 0 and int(warm_summary[2]) == int(warm_summary[3])

    serial_out, parallel_out = legs[1][0][1], legs[2][0][1]
    assert not _POOL.search(serial_out)
    pools = len(_POOL.findall(parallel_out))
    assert pools == 1
    fused = int(_FUSED.search(parallel_out)[1])
    assert fused > 0
    summary = _SUMMARY.search(parallel_out)
    n_jobs, n_cached, n_executed = (int(summary[i]) for i in (2, 3, 4))
    assert n_executed > 0 and n_jobs == n_cached + n_executed

    layers_root = tmp_path / "layers"
    layers_root.mkdir()
    layers = _commit_layers(layers_root)
    assert layers["entries"] == n_executed
    assert 0 < layers["groups"] <= n_executed
    assert layers["fsyncs"] <= layers["entries"] + 2 * layers["groups"] + 2

    speedup = walls[1] / walls[2]
    relative_speed = calibration / walls[2]
    payload = {
        "bench": "paper_e2e",
        "command": "repro paper --quick --backend fast (cold cache)",
        "rounds": ROUNDS,
        "cpu_count": os.cpu_count(),
        "wall_workers_1_s": round(walls[1], 3),
        "wall_workers_2_s": round(walls[2], 3),
        "wall_warm_s": round(wall_warm, 3),
        "calibration_s": round(calibration, 4),
        "metric": "relative_speed",
        "relative_speed": round(relative_speed, 4),
        "parallel_speedup": round(speedup, 3),
        "jobs_fused": fused,
        "pools_spawned": pools,
        "distinct_traces": _distinct_traces(Scale.quick()),
        "n_jobs": n_jobs,
        "n_cached": n_cached,
        "n_executed": n_executed,
        "layers": {
            "workers": 2,
            "entries": layers["entries"],
            "commit_groups": layers["groups"],
            "fsyncs": layers["fsyncs"],
        },
    }
    record("paper_e2e", payload)
    emit(
        "paper_e2e",
        "\n".join([
            f"cold repro paper --quick: {n_jobs} jobs ({n_cached} cached, "
            f"{n_executed} executed), {fused} fused, {pools} pool",
            f"--workers 1: {walls[1]:.3f}s (median of {ROUNDS})",
            f"--workers 2: {walls[2]:.3f}s (median of {ROUNDS})",
            f"warm re-run: {wall_warm:.3f}s (median of {ROUNDS})",
            f"calibration loop: {calibration:.3f}s (median of {ROUNDS})",
            f"relative speed: {relative_speed:.3f} "
            "(calibration / --workers 2 wall)",
            f"parallel speedup: {speedup:.2f}x (information only)",
            f"--workers 2 persistence: {layers['entries']} entries in "
            f"{layers['groups']} commit group(s), {layers['fsyncs']} fsyncs",
        ]),
    )
