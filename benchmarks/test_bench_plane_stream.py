"""Streamed TAGE planes bench (not a paper experiment).

The paper's TAGE derives every component's index and tag from folded
global histories; the fast backend turns them into per-branch plane rows
(3 + 2M int64 words per branch) that its sequential kernel reads.
Offline runs stream those rows in chunks of
:data:`repro.sim.fast.tage.PLANE_CHUNK` branches through every cell's
resumable state block instead of building them for the whole trace
first, so plane memory no longer grows with the trace.

Workload: one 1M-branch INT-1 lockstep pass per TAGE size (16K, 64K,
256K), three cells each (standard and probabilistic automata under the
§5 observation estimator, plus a predictor-only cell), run two ways —
whole-trace :func:`~repro.sim.fast.planes.compute_planes` handed to the
pass as ``planes=``, and the stream.  The bench asserts identical
results and emits ``benchmarks/records/BENCH_plane_stream.json`` with,
per leg:

* wall seconds (best of :data:`REPEATS`) and a ``layers`` split — plane
  building (every call of whichever builder ran: NumPy's
  ``compute_planes``, or per chunk the C carried-history builder when
  the C build resolves) and the kernel pass (the rest of the lockstep
  call);
* the ``tracemalloc`` peak of each pass (trace arrays materialized
  beforehand);
* the peak-RSS rise of a TAGE-64K pass in a fresh child process over a
  1M-branch random trace (the high-water mark after the pass minus the
  resident size before it: an upper bound of what the pass adds).

The compared ``metric`` is ``memory_ratio``, whole-trace over streamed
traced peak of the largest geometry (higher is better).

A second bench compares the two chunk builders on the same 1M INT-1
branches and three geometries: NumPy's windowed ``compute_planes`` (the
builder without a C compiler) against the C ``tage-planes`` builder fed
one carried history.  It asserts identical rows (a digest of every
chunk) and emits ``benchmarks/records/BENCH_plane_builder.json``, whose
compared ``speedup`` is the windowed seconds over the carried seconds
(each the best of :data:`REPEATS` whole passes of
``tage._plane_chunks``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from conftest import emit, patch_plane_builders, record, run_once  # noqa: F401

from repro.confidence.estimator import TageConfidenceEstimator
from repro.predictors.tage.config import AUTOMATON_PROBABILISTIC
from repro.sim.fast import (
    LockstepCell,
    TraceArrays,
    compiled,
    plane_geometry,
    simulate_tage_lockstep,
    tage,
)
from repro.sim.runner import build_predictor, get_trace

BRANCHES = 1_000_000
SIZES = ("16K", "64K", "256K")
#: Repetitions per leg; each leg reports its fastest.
REPEATS = 2
#: Whole-trace planes must peak at least this many times higher than
#: the stream.
MEMORY_RATIO_TARGET = 5.0

#: Child-process probe: peak-RSS rise of one TAGE-64K pass over a
#: random trace built without large temporaries (so the high-water mark
#: before the pass is the resident size).
_RSS_PROBE = textwrap.dedent("""
    import json, random, sys
    from repro.sim.fast import (LockstepCell, TraceArrays, compute_planes,
                                plane_geometry, simulate_tage_lockstep)
    from repro.sim.runner import build_predictor
    from repro.traces.types import Trace

    def status_mb(field):
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024

    leg, n = sys.argv[1], int(sys.argv[2])
    rng = random.Random(7)
    pcs = [0x400000 + 4 * rng.randrange(4096) for _ in range(n)]
    takens = bytes(rng.getrandbits(1) for _ in range(n))
    trace = Trace("random", pcs, takens, [4] * n)
    arrays = TraceArrays.from_trace(trace)
    predictor = build_predictor("64K")
    baseline = status_mb("VmRSS")
    planes = (compute_planes(arrays, plane_geometry(predictor.config))
              if leg == "whole" else None)
    simulate_tage_lockstep(trace, [LockstepCell(predictor)], planes=planes)
    print(json.dumps({"baseline_mb": round(baseline, 1),
                      "peak_rise_mb": round(status_mb("VmHWM") - baseline, 1)}))
""")


def _cells(size: str) -> list[LockstepCell]:
    standard = build_predictor(size)
    probabilistic = build_predictor(size, automaton=AUTOMATON_PROBABILISTIC)
    return [
        LockstepCell(standard, TageConfidenceEstimator(standard),
                     warmup_branches=BRANCHES // 4),
        LockstepCell(probabilistic, TageConfidenceEstimator(probabilistic),
                     warmup_branches=BRANCHES // 4),
        LockstepCell(build_predictor(size)),
    ]


def _pass(trace, size: str, whole: bool):
    """One lockstep pass; whole-trace planes are built inside it."""
    planes = None
    if whole:
        arrays = TraceArrays.from_trace(trace)
        planes = tage.compute_planes(arrays,
                                     plane_geometry(build_predictor(size).config))
    return simulate_tage_lockstep(trace, _cells(size), planes=planes)


def _timed_leg(trace, whole: bool, monkeypatch) -> tuple[list, dict]:
    """Best-of-:data:`REPEATS` seconds per size, split into plane
    building and the kernel pass."""
    spent = {"seconds": 0.0, "calls": 0}

    def timed(build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return build(*args, **kwargs)
            finally:
                spent["seconds"] += time.perf_counter() - start
                spent["calls"] += 1
        return wrapper

    results = []
    layers = {"planes": {"seconds": 0.0, "calls": 0}, "kernel": {"seconds": 0.0}}
    with monkeypatch.context() as patch:
        patch_plane_builders(patch, timed)
        for size in SIZES:
            best = None
            for _ in range(REPEATS):
                spent.update(seconds=0.0, calls=0)
                start = time.perf_counter()
                outcome = _pass(trace, size, whole)
                seconds = time.perf_counter() - start
                if best is None or seconds < best[0]:
                    best = (seconds, dict(spent), outcome)
            seconds, planes, outcome = best
            results.append(outcome)
            layers["planes"]["seconds"] += planes["seconds"]
            layers["planes"]["calls"] += planes["calls"]
            layers["kernel"]["seconds"] += seconds - planes["seconds"]
    for layer in layers.values():
        layer["seconds"] = round(layer["seconds"], 4)
    return results, layers


def _traced_peaks(trace, whole: bool) -> dict:
    peaks = {}
    for size in SIZES:
        tracemalloc.start()
        try:
            _pass(trace, size, whole)
            peaks[size] = round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
        finally:
            tracemalloc.stop()
    return peaks


def _rss_probe(leg: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _RSS_PROBE, leg, str(BRANCHES)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_plane_stream(run_once, monkeypatch):
    trace = get_trace("INT-1", BRANCHES)
    TraceArrays.from_trace(trace)
    _pass(trace, SIZES[0], whole=False)  # kernel build and warm-up

    stream_results, stream_layers = run_once(
        lambda: _timed_leg(trace, False, monkeypatch)
    )
    whole_results, whole_layers = _timed_leg(trace, True, monkeypatch)
    # Streaming is invisible in the results.
    assert stream_results == whole_results
    # One plane build per chunk per pass, against one per pass.
    chunks = -(-BRANCHES // tage.PLANE_CHUNK)
    assert stream_layers["planes"]["calls"] == chunks * len(SIZES)
    assert whole_layers["planes"]["calls"] == len(SIZES)

    stream_peaks = _traced_peaks(trace, whole=False)
    whole_peaks = _traced_peaks(trace, whole=True)
    memory_ratio = max(whole_peaks.values()) / max(stream_peaks.values())
    stream_rss = _rss_probe("stream")
    whole_rss = _rss_probe("whole")

    stream_seconds = stream_layers["planes"]["seconds"] + stream_layers["kernel"]["seconds"]
    whole_seconds = whole_layers["planes"]["seconds"] + whole_layers["kernel"]["seconds"]
    payload = {
        "bench": "plane_stream",
        "trace": "INT-1",
        "branches": BRANCHES,
        "sizes": list(SIZES),
        "cells_per_size": 3,
        "plane_chunk": tage.PLANE_CHUNK,
        "provider": compiled.active_provider(),
        "whole_seconds": round(whole_seconds, 4),
        "stream_seconds": round(stream_seconds, 4),
        "layers": {"whole": whole_layers, "stream": stream_layers},
        "traced_peak_mb": {"whole": whole_peaks, "stream": stream_peaks},
        "tage_64k_rss": {"whole": whole_rss, "stream": stream_rss},
        "metric": "memory_ratio",
        "memory_ratio": round(memory_ratio, 2),
        "memory_ratio_target": MEMORY_RATIO_TARGET,
    }
    record("plane_stream", payload)

    lines = [
        f"plane-stream bench: {BRANCHES} INT-1 branches, TAGE-"
        f"{'/'.join(SIZES)} x 3 lockstep cells, chunk {tage.PLANE_CHUNK}, "
        f"provider = {compiled.active_provider() or 'none'}",
    ]
    for leg, seconds, layers, peaks, rss in (
        ("whole", whole_seconds, whole_layers, whole_peaks, whole_rss),
        ("stream", stream_seconds, stream_layers, stream_peaks, stream_rss),
    ):
        lines.append(
            f"{leg:6s} {seconds:.3f}s (planes {layers['planes']['seconds']:.3f}s "
            f"in {layers['planes']['calls']} builds, kernel "
            f"{layers['kernel']['seconds']:.3f}s); traced peak MB "
            + ", ".join(f"{size} {peaks[size]:.1f}" for size in SIZES)
            + f"; TAGE-64K RSS rise {rss['peak_rise_mb']:.1f} MB over "
            f"{rss['baseline_mb']:.1f} MB"
        )
    lines.append(f"memory ratio: {memory_ratio:.2f}x "
                 f"(target >= {MEMORY_RATIO_TARGET:g}x)")
    emit("plane_stream", "\n".join(lines))

    assert memory_ratio >= MEMORY_RATIO_TARGET


#: The C carried-history builder must beat NumPy's windowed builder by
#: at least this factor.
BUILDER_SPEEDUP_TARGET = 1.2


def _builder_pass(arrays, geometry) -> tuple[float, str]:
    """Seconds spent inside one ``_plane_chunks`` pass (the chunk
    builds alone) and a digest of every chunk's rows (outside them)."""
    seconds = 0.0
    digest = hashlib.sha256()
    chunks = tage._plane_chunks(arrays, geometry)
    while True:
        start = time.perf_counter()
        chunk = next(chunks, None)
        seconds += time.perf_counter() - start
        if chunk is None:
            return seconds, digest.hexdigest()
        digest.update(chunk[1].tobytes())


def test_plane_builder(monkeypatch):
    monkeypatch.setenv(compiled.PROVIDER_ENV, "cext")
    if compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    arrays = TraceArrays.from_trace(get_trace("INT-1", BRANCHES))
    per_size = {}
    for size in SIZES:
        geometry = plane_geometry(build_predictor(size).config)
        best = {}
        for _ in range(REPEATS):
            for leg, provider in (("windowed", "none"), ("carried", "cext")):
                with monkeypatch.context() as patch:
                    patch.setenv(compiled.PROVIDER_ENV, provider)
                    seconds, digest = _builder_pass(arrays, geometry)
                if leg in best:
                    assert digest == best[leg][1]
                if leg not in best or seconds < best[leg][0]:
                    best[leg] = (seconds, digest)
        # Identical rows from both builders.
        assert best["windowed"][1] == best["carried"][1]
        per_size[size] = {leg: round(best[leg][0], 4) for leg in best}
    windowed = sum(times["windowed"] for times in per_size.values())
    carried = sum(times["carried"] for times in per_size.values())
    speedup = windowed / carried
    record("plane_builder", {
        "bench": "plane_builder",
        "trace": "INT-1",
        "branches": BRANCHES,
        "sizes": list(SIZES),
        "plane_chunk": tage.PLANE_CHUNK,
        "seconds": per_size,
        "windowed_seconds": round(windowed, 4),
        "carried_seconds": round(carried, 4),
        "speedup": round(speedup, 2),
        "speedup_target": BUILDER_SPEEDUP_TARGET,
    })
    lines = [
        f"plane-builder bench: {BRANCHES} INT-1 branches in "
        f"{tage.PLANE_CHUNK}-branch chunks, NumPy windowed vs C carried "
        "history (best of "
        f"{REPEATS})",
    ]
    for size, times in per_size.items():
        lines.append(f"TAGE-{size:5s} windowed {times['windowed']:.3f}s  "
                     f"carried {times['carried']:.3f}s  "
                     f"({times['windowed'] / times['carried']:.2f}x)")
    lines.append(f"speedup: {speedup:.2f}x (target >= {BUILDER_SPEEDUP_TARGET:g}x)")
    emit("plane_builder", "\n".join(lines))
    assert speedup >= BUILDER_SPEEDUP_TARGET
