"""Streamed TAGE planes: chunk boundaries are invisible.

Offline TAGE runs build their index/tag planes one chunk of
``tage.PLANE_CHUNK`` branches at a time and advance every cell's
resumable state block over it.  Two builders write the chunks: with the
C build, its carried-history ``tage-planes`` builder, whose history
block advances from chunk to chunk; without it, NumPy's
``compute_planes`` over a window reaching back the geometry's longest
history.  With the chunk length forced to a small odd value, both
builders must write the whole-trace rows — for the TAGE presets and
for geometries beyond them, one whose histories reach past a whole
chunk among them — and every cell must still match the reference engine:
both automata, a §6.2 controller whose windows straddle chunk
boundaries, warmup ending mid-chunk, and the JRS-family members of a
sweep unit.  One whole-trace plane block handed to the kernel as a
single chunk must give the same results, and the offline pass must
hold one chunk of planes, not one per trace length.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.predictors.tage.config import AUTOMATON_PROBABILISTIC, TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.engine import simulate
from repro.sim.fast import (
    LockstepCell,
    TraceArrays,
    compiled,
    compute_planes,
    plane_geometry,
    simulate_tage_fast,
    simulate_tage_lockstep,
    tage,
)
from repro.sim.runner import build_predictor, get_trace
from repro.sweep.executor import execute_batch, execute_job
from repro.sweep.grid import expand
from repro.sweep.spec import (
    EstimatorSpec,
    ExperimentSpec,
    LockstepBatch,
    PredictorSpec,
)
from repro.traces.types import Trace

#: Odd and far below the production chunk, so a 12.5k-branch trace
#: crosses a dozen boundaries that line up with nothing.
SMALL_CHUNK = 1_001
BRANCHES = 12_500
SIZES = ("16K", "64K", "256K")
#: Plane geometries beyond the presets: one tagged component; 2-bit tags
#: (the tag-1 fold clamps to one bit) under a short path register; and
#: histories up to 2,500 branches, longer than two whole chunks, so the
#: evicted outcome comes from a chunk built two calls earlier.
NON_PRESET_CONFIGS = (
    TageConfig(name="one-table", n_tagged=1, log_bimodal=10, log_tagged=7,
               tag_bits=6, min_history=4, max_history=4, path_history_bits=4),
    TageConfig(name="narrow-tags", n_tagged=5, log_bimodal=12, log_tagged=9,
               tag_bits=2, min_history=2, max_history=120, path_history_bits=7),
    TageConfig(name="long-history", n_tagged=6, log_bimodal=11, log_tagged=10,
               tag_bits=9, min_history=5, max_history=2_500,
               path_history_bits=24),
)


@pytest.fixture(params=("none", "cext"))
def kernel_leg(request, monkeypatch):
    """Pin one kernel leg (``cext`` skips without the C build) and the
    small chunk."""
    monkeypatch.setenv(compiled.PROVIDER_ENV, request.param)
    if request.param == "cext" and compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    monkeypatch.setattr(tage, "PLANE_CHUNK", SMALL_CHUNK)
    return request.param


@pytest.fixture(scope="module")
def trace():
    return get_trace("INT-1", BRANCHES)


def _cells(size: str) -> list[LockstepCell]:
    """Standard and probabilistic automata, warmup ending mid-chunk, a
    predictor-only cell and a §6.2 controller whose 700-branch windows
    cross the 1,001-branch chunk boundaries."""
    standard = build_predictor(size)
    probabilistic = build_predictor(size, automaton=AUTOMATON_PROBABILISTIC)
    adaptive = build_predictor(size, automaton=AUTOMATON_PROBABILISTIC)
    return [
        LockstepCell(standard, TageConfidenceEstimator(standard),
                     warmup_branches=2_500),
        LockstepCell(probabilistic, TageConfidenceEstimator(probabilistic),
                     warmup_branches=1_234),
        LockstepCell(build_predictor(size)),
        LockstepCell(adaptive, TageConfidenceEstimator(adaptive),
                     AdaptiveSaturationController(adaptive, target_mkp=6.0,
                                                  window=700),
                     warmup_branches=3_003),
    ]


@pytest.fixture(scope="module")
def reference_cells(trace):
    """Each size's cells on the reference engine (shared by both legs)."""
    return {
        size: [
            simulate(trace, cell.predictor, cell.estimator, cell.controller,
                     warmup_branches=cell.warmup_branches)
            for cell in _cells(size)
        ]
        for size in SIZES
    }


@pytest.mark.parametrize("size", SIZES)
def test_lockstep_across_chunks_matches_reference(kernel_leg, trace, size,
                                                  reference_cells):
    streamed = simulate_tage_lockstep(trace, _cells(size))
    assert streamed == reference_cells[size]
    for fast, reference in zip(streamed, reference_cells[size]):
        if reference.classes is not None:
            assert fast.classes.as_dict() == reference.classes.as_dict()


def _unit_jobs():
    """One fast unit per size: ``tage``/``jrs``/``ejrs`` members with
    warmup ending mid-chunk, and a TAGE-256K unit of binary members
    only, which the unit serves from a prediction-only cell."""
    spec = ExperimentSpec(
        name="stream/units",
        predictors=(PredictorSpec.parse("tage-16K"),
                    PredictorSpec.parse("tage-64K-prob")),
        estimators=tuple(EstimatorSpec.of(kind) for kind in ("tage", "jrs", "ejrs")),
        traces=("INT-1",),
        n_branches=BRANCHES,
        warmup_branches=2_345,
        seed=3,
        backend="fast",
    )
    binary_only = replace(spec, predictors=(PredictorSpec.parse("tage-256K"),),
                          estimators=(EstimatorSpec.of("jrs"), EstimatorSpec.of("ejrs")))
    jobs = expand(spec).jobs + expand(binary_only).jobs
    return [
        LockstepBatch(members=tuple(enumerate(
            job for job in jobs if job.predictor.size == size
        )))
        for size in SIZES
    ]


@pytest.fixture(scope="module")
def reference_units():
    return [
        [execute_job(replace(job, backend="reference")) for _, job in unit.members]
        for unit in _unit_jobs()
    ]


def _identity(result):
    """A job's result without its wall-clock ``elapsed`` (the backend is
    outside the spec hash)."""
    return (result.job.spec_hash(), result.result, result.binary,
            result.estimator_bits)


def test_sweep_units_across_chunks_match_reference(kernel_leg, reference_units):
    for unit, reference in zip(_unit_jobs(), reference_units):
        assert ([_identity(r) for r in execute_batch(unit)]
                == [_identity(r) for r in reference])


@pytest.mark.parametrize("geometry", [
    *(plane_geometry(build_predictor(size).config) for size in SIZES),
    *(plane_geometry(config) for config in NON_PRESET_CONFIGS),
], ids=[*SIZES, *(config.name for config in NON_PRESET_CONFIGS)])
def test_streamed_rows_equal_whole_trace_planes(kernel_leg, trace, geometry):
    """Either builder's chunks — the C one's from a history carried
    across them, as flat int64 memoryview blocks; NumPy's over look-back
    windows, as C-contiguous int64 ndarrays — equal the whole-trace
    planes row for row."""
    arrays = TraceArrays.from_trace(trace)
    n_rows = 2 + 2 * len(geometry[1])
    starts, blocks = [], []
    # A chunk's rows are valid until the next chunk is requested: copy.
    for start, rows in tage._plane_chunks(arrays, geometry):
        if kernel_leg == "cext":
            assert isinstance(rows, memoryview) and rows.format == "q"
            rows = np.frombuffer(rows, dtype=np.int64).reshape(n_rows, -1)
        else:
            assert rows.flags.c_contiguous and rows.dtype == np.int64
        starts.append(start)
        blocks.append(rows.copy())
    assert starts == list(range(0, BRANCHES, SMALL_CHUNK))
    np.testing.assert_array_equal(
        np.concatenate(blocks, axis=1),
        compute_planes(arrays, geometry).data[1:],
    )


@pytest.fixture(scope="module")
def reference_non_presets(trace):
    return {
        config.name: [
            simulate(trace, cell.predictor, cell.estimator,
                     warmup_branches=cell.warmup_branches)
            for cell in _non_preset_cells(config)
        ]
        for config in NON_PRESET_CONFIGS
    }


def _non_preset_cells(config: TageConfig) -> list[LockstepCell]:
    standard = TagePredictor(config)
    probabilistic = TagePredictor(config.with_probabilistic_automaton())
    return [
        LockstepCell(standard, TageConfidenceEstimator(standard),
                     warmup_branches=1_500),
        LockstepCell(probabilistic, TageConfidenceEstimator(probabilistic)),
    ]


@pytest.mark.parametrize("config", NON_PRESET_CONFIGS, ids=lambda c: c.name)
def test_non_preset_geometries_match_reference(kernel_leg, trace, config,
                                             reference_non_presets):
    streamed = simulate_tage_lockstep(trace, _non_preset_cells(config))
    assert streamed == reference_non_presets[config.name]
    for fast, reference in zip(streamed, reference_non_presets[config.name]):
        assert fast.classes.as_dict() == reference.classes.as_dict()


def test_supplied_planes_match_computed_chunks(kernel_leg, trace, monkeypatch):
    """Whole-trace planes handed to the kernel as a single chunk — one
    :func:`compute_planes` block over the trace, the baseline leg of
    ``benchmarks/test_bench_plane_stream.py`` — give the same results as
    the computed chunk stream, warmup ending mid-trace included."""
    predictor = build_predictor("64K")
    estimator = TageConfidenceEstimator(predictor)
    streamed = {size: simulate_tage_lockstep(trace, _cells(size)) for size in SIZES}
    streamed_fast = simulate_tage_fast(trace, predictor, estimator,
                                       warmup_branches=777)
    monkeypatch.setattr(tage, "PLANE_CHUNK", len(trace))
    monkeypatch.setattr(compiled, "resolve_tage_planes_kernel", lambda: None)
    arrays = TraceArrays.from_trace(trace)
    geometry = plane_geometry(predictor.config)
    [(start, rows)] = tage._plane_chunks(arrays, geometry)
    assert start == 0
    np.testing.assert_array_equal(rows, compute_planes(arrays, geometry).data[1:])
    for size in SIZES:
        assert simulate_tage_lockstep(trace, _cells(size)) == streamed[size]
    assert simulate_tage_fast(trace, predictor, estimator,
                              warmup_branches=777) == streamed_fast


def _random_trace(n: int) -> Trace:
    rng = np.random.default_rng(5)
    pcs = (rng.integers(0, 4_096, n) * 4 + 0x400000).tolist()
    return Trace("random", pcs, bytes(rng.integers(0, 2, n, dtype=np.uint8)),
                 [4] * n)


def _traced_peak(trace: Trace) -> int:
    """Peak traced bytes inside one TAGE-64K lockstep pass (one cell,
    which publishes its n-byte prediction stream)."""
    TraceArrays.from_trace(trace)  # the trace's arrays are not the pass's
    predictor = build_predictor("64K")
    tracemalloc.start()
    try:
        simulate_tage_lockstep(trace, [LockstepCell(predictor)])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_offline_plane_memory_is_one_chunk(monkeypatch):
    """Whole-trace planes of 200k TAGE-64K branches alone are ~27 MB;
    the stream holds one chunk, and its peak grows with the trace only
    by the cell's one-byte-per-branch prediction stream.  Measured on
    the C leg, whose builder reads each chunk's PCs and outcomes in
    place: the pure kernel reads the same chunk as Python lists (a
    larger constant) at a fraction of the speed."""
    monkeypatch.setenv(compiled.PROVIDER_ENV, "cext")
    if compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    short, long = 100_000, 200_000
    short_peak = _traced_peak(_random_trace(short))
    long_peak = _traced_peak(_random_trace(long))
    assert long_peak < 12_000_000
    assert long_peak - short_peak <= (long - short) + 500_000
