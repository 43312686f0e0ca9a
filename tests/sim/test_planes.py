"""TAGE index/tag plane precomputation and its memmap materialization.

The planes module claims that per-branch component indices and tags are
pure functions of the trace; these tests hold the vectorized closed form
to the reference predictor's own incremental hash pipeline, and exercise
the on-disk :class:`PlaneCache` (round trip, memmap serving, corruption
tolerance, geometry sharing across automaton/seed ablations).

The closed-form folded history and the doubled history windows are held
to the per-branch registers of :mod:`repro.common.history` and to the
one-pass-per-history-age loops they replaced, which live here only, as
oracles (``benchmarks/test_bench_planes.py`` times against them).  The
plane bytes of a fixed synthetic trace are pinned by digest, so a
rewrite of the arithmetic cannot silently invalidate ``PLANES_VERSION``.
"""

from __future__ import annotations

import hashlib

import pytest

np = pytest.importorskip("numpy")

from hypothesis import example, given
from hypothesis import strategies as st

from repro.common.bitops import mask
from repro.common.history import FoldedHistory, GlobalHistory
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import FastBackendUnsupported
from repro.sim.fast.arrays import (
    TraceArrays,
    fold_windows,
    folded_history_series,
    history_windows,
    segmented_history_windows,
)
from repro.sim.fast.gehl import _ogehl_index_planes
from repro.sim.fast.planes import (
    PLANES_VERSION,
    PlaneCache,
    TagePlanes,
    compute_planes,
    plane_geometry,
)


# -- per-age oracles ---------------------------------------------------------


def per_age_folded_series(outcomes, length: int, width: int) -> np.ndarray:
    """Folded history before each branch, one xor pass per history age."""
    outcomes = np.asarray(outcomes, dtype=np.int64)
    n = len(outcomes)
    series = np.zeros(n, dtype=np.int64)
    for age in range(min(length, n)):
        series[age + 1 :] ^= outcomes[: n - age - 1] << (age % width)
    return series


def per_age_history_windows(takens, length: int) -> np.ndarray:
    """Global-history windows, one or pass per history age."""
    outcomes = np.asarray(takens, dtype=np.int64)
    n = len(outcomes)
    windows = np.zeros(n, dtype=np.int64)
    for age in range(1, min(length, n) + 1):
        windows[age:] |= outcomes[:-age] << (age - 1)
    return windows


def per_age_segmented_history_windows(segments, takens, length: int) -> np.ndarray:
    """Per-segment history windows, one masked or pass per history age."""
    n = len(segments)
    order = np.argsort(segments, kind="stable")
    grouped_segments = segments[order]
    outcomes = np.asarray(takens, dtype=np.int64)[order]
    grouped = np.zeros(n, dtype=np.int64)
    for age in range(1, min(length, n) + 1):
        same = grouped_segments[age:] == grouped_segments[:-age]
        contribution = outcomes[:-age] << (age - 1)
        grouped[age:][same] |= contribution[same]
    windows = np.empty(n, dtype=np.int64)
    windows[order] = grouped
    return windows


def per_age_compute_planes(arrays: TraceArrays, geometry: tuple) -> TagePlanes:
    """:func:`compute_planes` with every fold taken by the per-age loop."""
    log_bimodal, components = geometry
    n_tagged = len(components)
    outcomes = arrays.takens.astype(np.int64)
    pc_part = arrays.pcs >> 2
    data = np.empty((3 + 2 * n_tagged, len(arrays)), dtype=np.int64)
    data[0] = arrays.pcs
    data[1] = outcomes
    data[2] = pc_part & mask(log_bimodal)
    max_path_bits = max(path_bits for *_, path_bits in components)
    path_windows = per_age_history_windows(arrays.pcs & 1, max_path_bits)
    for slot, (table_number, log_entries, tag_bits, length, path_bits) in enumerate(
        components
    ):
        path_part = fold_windows(path_windows & mask(path_bits), path_bits, log_entries)
        data[3 + slot] = (
            pc_part
            ^ (pc_part >> (table_number + 1))
            ^ per_age_folded_series(outcomes, length, log_entries)
            ^ path_part
        ) & mask(log_entries)
        data[3 + n_tagged + slot] = (
            pc_part
            ^ per_age_folded_series(outcomes, length, tag_bits)
            ^ (per_age_folded_series(outcomes, length, max(tag_bits - 1, 1)) << 1)
        ) & mask(tag_bits)
    return TagePlanes(geometry=geometry, data=data)


def per_age_ogehl_index_planes(arrays: TraceArrays, predictor: OgehlPredictor):
    """:func:`_ogehl_index_planes` with the per-age fold."""
    index_mask = mask(predictor.log_entries)
    pc_part = arrays.pcs >> 2
    planes = np.empty((predictor.n_tables, len(arrays)), dtype=np.int64)
    planes[0] = pc_part & index_mask
    for table, length in enumerate(predictor.history_lengths, start=1):
        folded = per_age_folded_series(arrays.takens, length, predictor.log_entries)
        planes[table] = (pc_part ^ (pc_part >> (table + 1)) ^ folded) & index_mask
    return planes


def register_folds(outcomes, length: int, width: int) -> list[int]:
    """``FoldedHistory.fold_window`` of the register before each branch."""
    history = GlobalHistory(capacity=length)
    folds = []
    for taken in outcomes:
        folds.append(FoldedHistory.fold_window(history.window(length), length, width))
        history.push(bool(taken))
    return folds


def reference_planes(config: TageConfig, trace):
    """Indices/tags via the reference predictor's own hash pipeline.

    Drives a real :class:`TagePredictor` through the trace and harvests
    the per-branch ``indices``/``tags`` snapshots from the observation
    record — the ground truth the vectorized planes must reproduce.
    """
    predictor = TagePredictor(config)
    indices = [[] for _ in range(config.n_tagged)]
    tags = [[] for _ in range(config.n_tagged)]
    for pc, taken_byte in zip(trace.pcs, trace.takens):
        predictor.predict(pc)
        last = predictor.last_prediction
        for i in range(config.n_tagged):
            indices[i].append(last.indices[i + 1])
            tags[i].append(last.tags[i + 1])
        predictor.train(pc, taken_byte == 1)
    return indices, tags


@pytest.mark.parametrize("config", [
    TageConfig.small(),
    TageConfig.medium(),
    TageConfig.small(path_history_bits=5),
    TageConfig.small(min_history=1, max_history=200, n_tagged=3),
], ids=["16K", "64K", "short-path", "long-history"])
def test_planes_match_reference_hash_pipeline(tiny_trace, config):
    """Rows by the documented layout: bimodal indices at ``data[2]``,
    component ``i``'s index at ``data[2 + i]`` and its tag at
    ``data[2 + M + i]``."""
    arrays = TraceArrays.from_trace(tiny_trace)
    data = compute_planes(arrays, plane_geometry(config)).data
    n_tagged = config.n_tagged
    np.testing.assert_array_equal(
        data[2], (arrays.pcs >> 2) & mask(config.log_bimodal)
    )
    ref_indices, ref_tags = reference_planes(config, tiny_trace)
    for i in range(1, n_tagged + 1):
        assert data[2 + i].tolist() == ref_indices[i - 1]
        assert data[2 + n_tagged + i].tolist() == ref_tags[i - 1]


def test_planes_carry_trace_arrays(tiny_trace):
    """Rows ``0`` and ``1`` are the trace's PCs and outcomes, int64, and
    the block has ``3 + 2M`` rows of trace length."""
    arrays = TraceArrays.from_trace(tiny_trace)
    config = TageConfig.small()
    data = compute_planes(arrays, plane_geometry(config)).data
    assert data.dtype == np.int64 and data.flags.c_contiguous
    assert data.shape == (3 + 2 * config.n_tagged, len(arrays))
    np.testing.assert_array_equal(data[0], arrays.pcs)
    np.testing.assert_array_equal(data[1], arrays.takens)


def test_planes_reject_oversized_path_history(tiny_trace):
    arrays = TraceArrays.from_trace(tiny_trace)
    config = TageConfig.small(path_history_bits=70, min_history=80, max_history=120)
    with pytest.raises(FastBackendUnsupported, match="path history"):
        compute_planes(arrays, plane_geometry(config))


def test_geometry_shared_across_automaton_and_seeds():
    base = TageConfig.small()
    assert plane_geometry(base) == plane_geometry(base.with_probabilistic_automaton())
    assert plane_geometry(base) == plane_geometry(
        TageConfig.small(lfsr_seed=1, alloc_seed=2, ctr_bits=4, u_bits=1)
    )
    assert plane_geometry(base) != plane_geometry(TageConfig.medium())
    assert plane_geometry(base) != plane_geometry(TageConfig.small(tag_bits=8))


class TestPlaneCache:
    def test_round_trip_serves_memmap(self, tiny_trace, tmp_path):
        arrays = TraceArrays.from_trace(tiny_trace)
        geometry = plane_geometry(TageConfig.small())
        cache = PlaneCache(tmp_path)
        assert len(cache) == 0
        first = cache.load_or_compute(arrays, geometry)
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 1

        second = cache.load_or_compute(arrays, geometry)
        assert (cache.hits, cache.misses) == (1, 1)
        assert isinstance(second.data, np.memmap)
        np.testing.assert_array_equal(np.asarray(second.data), first.data)

    def test_distinct_keys_per_trace_and_geometry(self, tiny_trace, int1_trace, tmp_path):
        cache = PlaneCache(tmp_path)
        small = plane_geometry(TageConfig.small())
        medium = plane_geometry(TageConfig.medium())
        tiny_arrays = TraceArrays.from_trace(tiny_trace)
        cache.load_or_compute(tiny_arrays, small)
        cache.load_or_compute(tiny_arrays, medium)
        cache.load_or_compute(TraceArrays.from_trace(int1_trace), small)
        assert len(cache) == 3
        assert cache.misses == 3

    def test_corrupt_entry_is_recomputed(self, tiny_trace, tmp_path):
        arrays = TraceArrays.from_trace(tiny_trace)
        geometry = plane_geometry(TageConfig.small())
        cache = PlaneCache(tmp_path)
        fresh = cache.load_or_compute(arrays, geometry)
        path = cache.path(arrays, geometry)
        path.write_bytes(b"not a numpy file")
        recovered = cache.load_or_compute(arrays, geometry)
        np.testing.assert_array_equal(recovered.data, fresh.data)
        assert cache.misses == 2

    def test_truncated_entry_is_recomputed(self, tiny_trace, tmp_path):
        """A zero-byte file (crash mid-materialization) must be a miss,
        not an EOFError crashing every later fast run."""
        arrays = TraceArrays.from_trace(tiny_trace)
        geometry = plane_geometry(TageConfig.small())
        cache = PlaneCache(tmp_path)
        fresh = cache.load_or_compute(arrays, geometry)
        cache.path(arrays, geometry).write_bytes(b"")
        recovered = cache.load_or_compute(arrays, geometry)
        np.testing.assert_array_equal(recovered.data, fresh.data)
        assert cache.misses == 2

    def test_wrong_shape_entry_is_a_miss(self, tiny_trace, tmp_path):
        arrays = TraceArrays.from_trace(tiny_trace)
        geometry = plane_geometry(TageConfig.small())
        cache = PlaneCache(tmp_path)
        path = cache.path(arrays, geometry)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, np.zeros((2, 3), dtype=np.int64))
        planes = cache.load_or_compute(arrays, geometry)
        assert planes.data.shape == (3 + 2 * len(geometry[1]), len(arrays))
        assert cache.misses == 1


# -- closed-form fold and doubled windows ------------------------------------

outcome_lists = st.lists(st.integers(0, 1), min_size=0, max_size=80)


class TestFoldedHistorySeries:
    @given(outcome_lists, st.integers(1, 100), st.integers(1, 16))
    @example([], 1, 1)
    @example([1], 5, 3)
    @example([1, 0, 1, 1], 4, 7)
    @example([1, 1, 0, 1, 0, 0, 1, 1, 1], 6, 3)
    @example([1] * 40, 16, 16)
    def test_matches_register_and_per_age_loop(self, outcomes, length, width):
        takens = np.array(outcomes, dtype=np.uint8)
        series = folded_history_series(takens, length, width)
        assert series.dtype == np.int64
        assert series.tolist() == register_folds(outcomes, length, width)
        np.testing.assert_array_equal(
            series, per_age_folded_series(takens, length, width)
        )

    @given(outcome_lists, st.integers(1, 8), st.integers(1, 16))
    def test_length_a_multiple_of_width(self, outcomes, multiple, width):
        length = multiple * width
        takens = np.array(outcomes, dtype=np.uint8)
        assert folded_history_series(takens, length, width).tolist() == (
            register_folds(outcomes, length, width)
        )

    @given(outcome_lists, st.lists(st.integers(1, 100), min_size=1, max_size=6),
           st.integers(1, 16))
    def test_shared_unbounded_fold_and_out_buffer(self, outcomes, lengths, width):
        takens = np.array(outcomes, dtype=np.uint8)
        shared: dict = {}
        for length in lengths:
            out = np.full(len(takens), -1, dtype=np.int64)
            result = folded_history_series(
                takens, length, width, unbounded_folds=shared, out=out
            )
            assert result is out
            np.testing.assert_array_equal(
                out, per_age_folded_series(takens, length, width)
            )
        assert list(shared) == [width]

    def test_rejects_non_positive_arguments(self):
        takens = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError, match="width"):
            folded_history_series(takens, 4, 0)
        with pytest.raises(ValueError, match="length"):
            folded_history_series(takens, 0, 4)


class TestDoubledHistoryWindows:
    @given(outcome_lists, st.integers(1, 62))
    @example([], 1)
    @example([1], 62)
    @example([1] * 80, 62)
    def test_global_matches_register_and_per_age_loop(self, outcomes, length):
        takens = np.array(outcomes, dtype=np.uint8)
        windows = history_windows(takens, length)
        np.testing.assert_array_equal(windows, per_age_history_windows(takens, length))
        history = GlobalHistory(capacity=length)
        for t, taken in enumerate(outcomes):
            assert windows[t] == history.window(length)
            history.push(bool(taken))

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=80),
        st.integers(1, 62),
    )
    @example([], 1)
    @example([(0, 1)], 3)
    @example([(1, 1)] * 70, 62)
    def test_segmented_matches_per_age_loop(self, accesses, length):
        segments = np.array([s for s, _ in accesses], dtype=np.int64)
        takens = np.array([t for _, t in accesses], dtype=np.uint8)
        np.testing.assert_array_equal(
            segmented_history_windows(segments, takens, length),
            per_age_segmented_history_windows(segments, takens, length),
        )


@given(st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 1)), max_size=300))
def test_planes_match_per_age_planes(branches):
    arrays = TraceArrays(
        name="random",
        pcs=np.array([pc for pc, _ in branches], dtype=np.int64),
        takens=np.array([t for _, t in branches], dtype=np.uint8),
    )
    for config in (TageConfig.small(), TageConfig.large()):
        geometry = plane_geometry(config)
        np.testing.assert_array_equal(
            compute_planes(arrays, geometry).data,
            per_age_compute_planes(arrays, geometry).data,
        )
    predictor = OgehlPredictor()
    np.testing.assert_array_equal(
        _ogehl_index_planes(arrays, predictor),
        per_age_ogehl_index_planes(arrays, predictor),
    )


# -- pinned plane bytes -------------------------------------------------------


def pinned_arrays(n: int = 3000) -> TraceArrays:
    """A fixed synthetic trace from a 64-bit LCG (no library RNG, so the
    bytes cannot drift with a NumPy or generator change)."""
    state = 0x9E3779B97F4A7C15
    pcs, takens = [], []
    for _ in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) & mask(64)
        pcs.append(0x400000 + ((state >> 40) & 0x3FFF) * 4 + ((state >> 30) & 3))
        takens.append(1 if (state >> 60) < 11 else 0)
    return TraceArrays(name="pinned", pcs=np.array(pcs, dtype=np.int64),
                       takens=np.array(takens, dtype=np.uint8))


def _digest(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()


#: sha256 of the plane bytes of :func:`pinned_arrays`, taken from the
#: per-age implementation.  A change here is a plane-format change: it
#: must come with a ``PLANES_VERSION`` bump.
PINNED_TAGE_PLANES = {
    "16K": (TageConfig.small, (11, 3000),
            "90b492c51d48b0b1a6722f8c814d382ffddc77ccdffeb8da7c5104b87a343e8b"),
    "64K": (TageConfig.medium, (17, 3000),
            "ab1d36e7c7082d135da69a8158b2ad169caf0081f41efea4a8850defa7020c47"),
    "256K": (TageConfig.large, (19, 3000),
             "53dff97d594c2bd67061c8a51759a7203bc307e0d3ccb9b8f85bf148fa9055d7"),
}
PINNED_OGEHL_PLANES = (
    (8, 3000), "a78baed1c1b5738e36326e4d12a62e7c254dcaf0e8c8f84d76bcad7605a16199"
)


@pytest.mark.parametrize("size", sorted(PINNED_TAGE_PLANES))
def test_tage_plane_bytes_are_pinned(size):
    make_config, shape, digest = PINNED_TAGE_PLANES[size]
    data = compute_planes(pinned_arrays(), plane_geometry(make_config())).data
    assert data.shape == shape
    assert _digest(data) == digest
    assert PLANES_VERSION == 1


def test_ogehl_plane_bytes_are_pinned():
    shape, digest = PINNED_OGEHL_PLANES
    data = _ogehl_index_planes(pinned_arrays(), OgehlPredictor())
    assert data.shape == shape
    assert _digest(data) == digest
