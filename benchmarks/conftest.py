"""Shared infrastructure for the paper-reproduction benches.

Every bench regenerates one artifact of the paper — and since the
artifact-registry PR the benches are *thin consumers* of
:mod:`repro.artifacts`: each table/figure/ablation bench asks
:func:`bench_artifact` for its registered artifact (grid definitions,
rendering and machine-readable cells all live in the registry, defined
exactly once) and keeps only its shape assertions and emission here.
``repro paper`` runs the same registry, so a bench session and a
pipeline run sharing ``REPRO_BENCH_CACHE`` serve each other's jobs.

Sharing layers:

* in-session: one :class:`~repro.artifacts.service.SweepService` is
  shared by every bench, so artifacts needing the same sweep (Table 1
  and Figure 2 both need the standard-automaton CBP-1 runs) only
  simulate it once — the first bench to request it pays the wall-clock
  cost, which is what its pytest-benchmark timing reports;
* on-disk (opt-in): set ``REPRO_BENCH_CACHE=<dir>`` to serve repeated
  bench sessions from the sweep result cache, and
  ``REPRO_BENCH_WORKERS=<n>`` to fan the simulations out over a worker
  pool.  Both default off so timings stay comparable run to run.

Scale: ``REPRO_BENCH_BRANCHES`` (default 16 000) dynamic branches per
trace; the artifact :class:`~repro.artifacts.spec.Scale` excludes the
first quarter of every trace from class accounting (see its docstring
for the reduced-scale rationale).

Output splits into two directories:

* ``benchmarks/results/`` — **scratch** (gitignored): the rendered
  ASCII tables, written by :func:`emit` so a plain
  ``pytest benchmarks/ --benchmark-only`` run leaves the regenerated
  series on disk;
* ``benchmarks/records/`` — **tracked**: structured ``BENCH_*.json``
  trajectory points written by :func:`record` (perf benches commit
  these as baselines; CI's bench-trajectory guard redirects fresh
  measurements elsewhere via ``REPRO_BENCH_RECORDS`` and compares).
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

import pytest

from repro.artifacts import Scale, SweepService, build_artifact, suite_grid
from repro.sweep import ResultCache

#: Scratch dir for rendered tables (gitignored).
RESULTS_DIR = Path(__file__).parent / "results"

#: Tracked dir for machine-readable BENCH_*.json trajectory records;
#: ``REPRO_BENCH_RECORDS`` redirects fresh measurements (CI guard).
RECORDS_DIR = Path(os.environ.get("REPRO_BENCH_RECORDS", Path(__file__).parent / "records"))


def bench_branches() -> int:
    return int(os.environ.get("REPRO_BENCH_BRANCHES", "16000"))


def bench_scale() -> Scale:
    """The artifact scale of this bench session."""
    return Scale(bench_branches())


def bench_workers() -> int:
    """Sweep pool size; 1 (the default) keeps benches in-process."""
    return int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def bench_speedup_target() -> float:
    """Hard wall-clock gate of the fast-backend benches (default 3x).

    ``REPRO_BENCH_SPEEDUP_TARGET`` relaxes it where a different arbiter
    owns the pass/fail decision — CI's bench-trajectory job lowers it so
    a throttled runner cannot fail the measurement step before
    ``tools/check_bench_trajectory.py`` compares against the committed
    baselines.
    """
    return float(os.environ.get("REPRO_BENCH_SPEEDUP_TARGET", "3.0"))


#: Iterations of the calibration loop (~0.1 s on a 2-core x86-64 box).
CALIBRATION_LOOPS = 1_000_000


def calibrate() -> float:
    """Seconds this process takes for a fixed, ``repro``-free
    pure-Python loop: the machine's interpreter speed.

    A bench's ``relative_speed`` is this over the seconds of the path it
    guards, so the metric rises whenever that path gets faster, stays
    comparable across machines, and does not fall when a leg it is not
    about gets faster too.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def bench_cache() -> ResultCache | None:
    """Opt-in on-disk sweep cache (``REPRO_BENCH_CACHE=<dir>``)."""
    root = os.environ.get("REPRO_BENCH_CACHE")
    return ResultCache(root) if root else None


@functools.lru_cache(maxsize=1)
def bench_service() -> SweepService:
    """The session-wide sweep service every bench artifact goes through."""
    return SweepService(workers=bench_workers(), cache=bench_cache())


@functools.lru_cache(maxsize=64)
def bench_artifact(key: str):
    """Build (once per session) one registered artifact at bench scale.

    Returns the full :class:`~repro.artifacts.spec.ArtifactResult`:
    ``.text`` for :func:`emit`, ``.data`` for shape assertions,
    ``.cells`` for anything numeric.
    """
    return build_artifact(key, service=bench_service(), scale=bench_scale())


@functools.lru_cache(maxsize=64)
def cached_suite(
    suite: str,
    size: str,
    automaton: str = "standard",
    sat_prob_log2: int = 7,
    adaptive: bool = False,
    names: tuple[str, ...] | None = None,
):
    """Per-trace results of one registry grid, for cross-artifact
    comparisons (e.g. Figure 5/6 versus their standard-automaton runs).

    Identical results to one ``run_trace`` per trace: the grids
    carry no base seed, so every component keeps its fixed built-in
    seeds regardless of worker count.
    """
    spec = suite_grid(
        suite,
        size,
        scale=bench_scale(),
        automaton=automaton,
        sat_prob_log2=sat_prob_log2,
        adaptive=adaptive,
        names=names,
    )
    return bench_service().results(spec)


def emit(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def record(name: str, payload: dict) -> Path:
    """Persist a structured trajectory record as BENCH_<name>.json."""
    RECORDS_DIR.mkdir(parents=True, exist_ok=True)
    path = RECORDS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def patch_plane_builders(monkeypatch, wrap) -> None:
    """Route every TAGE plane-chunk build through ``wrap(builder)``,
    whichever builder runs: NumPy's windowed ``compute_planes`` (the
    fast engine looks it up in :mod:`repro.sim.fast.planes` on each
    NumPy-leg pass), and the C carried-history ``tage-planes`` builder
    as it resolves."""
    from repro.sim.fast import compiled, planes

    monkeypatch.setattr(planes, "compute_planes", wrap(planes.compute_planes))
    resolve = compiled.resolve_tage_planes_kernel

    def resolve_wrapped():
        build = resolve()
        return None if build is None else wrap(build)

    monkeypatch.setattr(compiled, "resolve_tage_planes_kernel", resolve_wrapped)


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return runner
