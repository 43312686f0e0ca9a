"""Trace-layer bench: one 1M-branch RTRC file to the fast kernels' arrays.

Not a paper experiment.  The bench times the three steps between a
trace file and :class:`~repro.sim.fast.arrays.TraceArrays`, each
:data:`ROUNDS` times in this process, keeping the median of each:

* ``decode_s`` — :meth:`~repro.traces.io.TraceReader.read_columns`:
  the file read and the column-wise decode into an ``array('Q')`` of
  pcs and byte strings of takens and instruction counts;
* ``trace_s`` — :class:`~repro.traces.types.Trace` over those columns
  (buffer copies plus the instruction total);
* ``from_trace_s`` — :meth:`TraceArrays.from_trace` (``np.frombuffer``
  over the packed columns, the int64 range check and the copies).

It writes ``benchmarks/records/BENCH_trace_io.json``:

* ``calibration_s`` — median seconds of the fixed pure-Python loop
  (``conftest.calibrate``, no ``repro`` code) timed before each round;
* ``relative_speed`` (the compared metric) — ``calibration_s`` over the
  summed median seconds of the three steps, so it rises whenever the
  path gets faster and is comparable across machines;
* ``bytes_per_branch`` — the Python heap the materialized trace holds
  (``tracemalloc``, an untimed pass) per branch.  A hard assert caps it
  at :data:`MAX_BYTES_PER_BRANCH`: the packed columns take 10 bytes a
  branch (8-byte pc, 1-byte taken, 1-byte count), where columns of
  Python ints took about 45.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from conftest import calibrate, emit, record, run_once  # noqa: F401

from repro.sim.fast.arrays import TraceArrays
from repro.traces.io import TraceReader, write_trace
from repro.traces.suites import trace_spec
from repro.traces.types import Trace
from repro.traces.workload import synthesize

#: Branches in the timed file.
BRANCHES = 1_000_000

#: Timed rounds; the median of each step is recorded.
ROUNDS = 7

#: Cap on the heap a read trace holds per branch.
MAX_BYTES_PER_BRANCH = 11.0


def _read(path) -> tuple[Trace, list[float]]:
    """One pass of the path; returns the trace and each step's seconds."""
    start = time.perf_counter()
    with TraceReader(path) as reader:
        name, columns = reader.name, reader.read_columns()
    decoded = time.perf_counter()
    trace = Trace(name, *columns)
    built = time.perf_counter()
    arrays = TraceArrays.from_trace(trace)
    done = time.perf_counter()
    assert len(arrays) == len(trace)
    return trace, [decoded - start, built - decoded, done - built]


def _held_bytes(path) -> int:
    """Heap bytes a trace read from ``path`` keeps alive."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with TraceReader(path) as reader:
            trace = Trace(reader.name, *reader.read_columns())
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == BRANCHES
    return held


def test_trace_io_to_arrays(run_once, tmp_path):
    path = tmp_path / "int1.rtrc"
    source = synthesize(trace_spec("INT-1"), BRANCHES)
    write_trace(source, path)

    steps: list[list[float]] = []
    calibrations: list[float] = []

    def measure():
        for _ in range(ROUNDS):
            calibrations.append(calibrate())
            trace, seconds = _read(path)
            steps.append(seconds)
        return trace

    trace = run_once(measure)
    assert trace.pcs == source.pcs
    assert trace.takens == source.takens
    assert trace.insts == source.insts
    arrays = TraceArrays.from_trace(trace)
    assert np.array_equal(arrays.pcs, np.frombuffer(source.pcs, dtype=np.int64))

    decode_s, trace_s, from_trace_s = (
        statistics.median(round_seconds[step] for round_seconds in steps)
        for step in range(3)
    )
    path_s = decode_s + trace_s + from_trace_s
    calibration = statistics.median(calibrations)
    relative_speed = calibration / path_s
    bytes_per_branch = _held_bytes(path) / BRANCHES

    payload = {
        "bench": "trace_io",
        "path": "RTRC file -> TraceReader.read_columns -> Trace -> "
                "TraceArrays.from_trace",
        "branches": BRANCHES,
        "rounds": ROUNDS,
        "decode_s": round(decode_s, 4),
        "trace_s": round(trace_s, 4),
        "from_trace_s": round(from_trace_s, 4),
        "path_s": round(path_s, 4),
        "calibration_s": round(calibration, 4),
        "metric": "relative_speed",
        "relative_speed": round(relative_speed, 4),
        "bytes_per_branch": round(bytes_per_branch, 2),
        "max_bytes_per_branch": MAX_BYTES_PER_BRANCH,
    }
    record("trace_io", payload)
    emit(
        "trace_io",
        "\n".join([
            f"RTRC -> TraceArrays, {BRANCHES} branches "
            f"(median of {ROUNDS} rounds)",
            f"decode:     {decode_s * 1e3:.1f} ms",
            f"Trace:      {trace_s * 1e3:.1f} ms",
            f"from_trace: {from_trace_s * 1e3:.1f} ms",
            f"calibration loop: {calibration:.3f}s",
            f"relative speed: {relative_speed:.3f} (calibration / path)",
            f"held by the trace: {bytes_per_branch:.2f} bytes/branch",
        ]),
    )

    assert bytes_per_branch <= MAX_BYTES_PER_BRANCH, (
        f"a read trace holds {bytes_per_branch:.2f} bytes per branch "
        f"(cap {MAX_BYTES_PER_BRANCH:g})"
    )
