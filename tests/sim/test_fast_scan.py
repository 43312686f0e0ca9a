"""Unit tests for the fast backend's building blocks.

The segmented clamp-add scan is checked against a naive sequential
oracle; the vectorized history windows and folds are checked against the
scalar :mod:`repro.common` implementations they replace.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import fold_bits
from repro.common.history import GlobalHistory
from repro.sim.fast.arrays import TraceArrays
from repro.sim.fast.windows import fold_windows, history_windows
from repro.sim.fast.scan import (
    CounterTable,
    apply_transform,
    compose,
    resetting_transforms,
    saturating_transforms,
    scanned_counters,
    segmented_inclusive_scan,
)
from repro.traces.types import Trace


def naive_counters(n_entries, init, indices, b, lo, hi):
    """Sequential oracle: per-entry state machine, one access at a time."""
    state = {entry: init for entry in range(n_entries)}
    before = []
    for index, bb, ll, hh in zip(indices, b, lo, hi):
        before.append(state[index])
        state[index] = min(max(state[index] + bb, ll), hh)
    return np.array(before, dtype=np.int64), state


class TestComposition:
    @given(
        st.tuples(st.integers(-5, 5), st.integers(-8, 0), st.integers(1, 8)),
        st.tuples(st.integers(-5, 5), st.integers(-8, 0), st.integers(1, 8)),
        st.integers(-20, 20),
    )
    def test_compose_equals_sequential_application(self, early, late, x):
        def as_arrays(t):
            return tuple(np.array([v], dtype=np.int64) for v in t)

        eb, elo, ehi = as_arrays(early)
        lb, llo, lhi = as_arrays(late)
        composed = compose(eb, elo, ehi, lb, llo, lhi)
        sequential = apply_transform(lb, llo, lhi, apply_transform(eb, elo, ehi, x))
        assert apply_transform(*composed, x)[0] == sequential[0]


class TestSegmentedScan:
    @settings(max_examples=60, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(st.integers(0, 7), st.booleans()), min_size=1, max_size=200
        ),
        max_value=st.integers(1, 15),
        init=st.integers(0, 3),
    )
    def test_saturating_scan_matches_oracle(self, accesses, max_value, init):
        indices = np.array([slot for slot, _ in accesses], dtype=np.int64)
        up = np.array([direction for _, direction in accesses])
        b, lo, hi = saturating_transforms(up, max_value)
        init = min(init, max_value)
        observed = scanned_counters(8, init, indices, b, lo, hi)
        expected, _ = naive_counters(8, init, indices, b, lo, hi)
        assert np.array_equal(observed, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(st.integers(0, 7), st.booleans()), min_size=1, max_size=200
        ),
        max_value=st.integers(1, 15),
        chunk_size=st.integers(1, 64),
    )
    def test_resetting_scan_matches_oracle_for_every_chunk_size(
        self, accesses, max_value, chunk_size
    ):
        indices = np.array([slot for slot, _ in accesses], dtype=np.int64)
        correct = np.array([flag for _, flag in accesses])
        b, lo, hi = resetting_transforms(correct, max_value)
        observed = scanned_counters(8, 0, indices, b, lo, hi, chunk_size)
        expected, _ = naive_counters(8, 0, indices, b, lo, hi)
        assert np.array_equal(observed, expected)

    def test_scan_on_grouped_segments(self):
        seg = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        up = np.array([True, True, True, False, True, False])
        b, lo, hi = saturating_transforms(up, 3)
        b, lo, hi = segmented_inclusive_scan(seg, b, lo, hi)
        # Segment 0: three increments from any x -> min(x+3, 3).
        assert apply_transform(b[2:3], lo[2:3], hi[2:3], 0)[0] == 3
        assert apply_transform(b[2:3], lo[2:3], hi[2:3], 2)[0] == 3
        # Segment 1 restarts: down then up -> max(x-1,0)+1 capped.
        assert apply_transform(b[4:5], lo[4:5], hi[4:5], 0)[0] == 1
        # Segment 2: single decrement.
        assert apply_transform(b[5:6], lo[5:6], hi[5:6], 0)[0] == 0

    def test_empty_chunk(self):
        table = CounterTable(4, 1)
        out = table.lookup_scan(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        assert len(out) == 0
        assert np.array_equal(table.state, np.full(4, 1))

    def test_state_carries_across_chunks(self):
        """Final table state after chunked processing equals the oracle's."""
        rng = np.random.default_rng(7)
        indices = rng.integers(0, 16, size=500)
        up = rng.random(500) < 0.6
        b, lo, hi = saturating_transforms(up, 3)
        table = CounterTable(16, 2)
        for start in range(0, 500, 37):
            table.lookup_scan(
                indices[start:start + 37], b[start:start + 37],
                lo[start:start + 37], hi[start:start + 37],
            )
        _, oracle_state = naive_counters(16, 2, indices, b, lo, hi)
        assert np.array_equal(
            table.state, np.array([oracle_state[i] for i in range(16)])
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="n_entries"):
            CounterTable(0, 0)
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="chunk_size"):
            scanned_counters(4, 0, empty, empty, empty, empty, chunk_size=0)


class TestHistoryWindows:
    @settings(max_examples=60, deadline=None)
    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=150),
        length=st.integers(1, 20),
    )
    def test_windows_match_global_history(self, outcomes, length):
        takens = np.array([int(o) for o in outcomes], dtype=np.uint8)
        windows = history_windows(takens, length)
        register = GlobalHistory(capacity=length)
        for t, outcome in enumerate(outcomes):
            assert windows[t] == register.window(length), f"branch {t}"
            register.push(outcome)

    def test_length_validation(self):
        with pytest.raises(ValueError, match="history length"):
            history_windows(np.zeros(4, dtype=np.uint8), 0)


class TestFoldWindows:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(0, (1 << 20) - 1), min_size=1, max_size=50),
        width=st.integers(1, 12),
    )
    def test_fold_matches_scalar(self, values, width):
        windows = np.array(values, dtype=np.int64)
        folded = fold_windows(windows, 20, width)
        for value, observed in zip(values, folded):
            assert observed == fold_bits(value, width)

    def test_validation(self):
        windows = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="fold width"):
            fold_windows(windows, 8, 0)
        with pytest.raises(ValueError, match="total_bits"):
            fold_windows(windows, 0, 4)


class TestTraceArrays:
    def test_materialization_copies(self):
        trace = Trace("t", [4, 8, 12], [1, 0, 1], [1, 2, 3])
        arrays = TraceArrays.from_trace(trace)
        assert arrays.name == "t"
        assert arrays.pcs.dtype == np.int64
        assert list(arrays.takens) == [1, 0, 1]
        assert list(arrays.taken_bool) == [True, False, True]
        trace.takens[0] = 0  # mutating the trace must not alias the arrays
        assert arrays.takens[0] == 1

    def test_len(self):
        trace = Trace("t", [4, 8], [1, 0], [1, 1])
        assert len(TraceArrays.from_trace(trace)) == 2

    def test_memoized_on_trace_identity(self):
        trace = Trace("t", [4, 8, 12], [1, 0, 1], [1, 2, 3])
        assert TraceArrays.from_trace(trace) is TraceArrays.from_trace(trace)

    def test_memoized_arrays_are_read_only(self):
        arrays = TraceArrays.from_trace(Trace("t", [4, 8], [1, 0], [1, 1]))
        with pytest.raises(ValueError, match="read-only"):
            arrays.pcs[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            arrays.takens[0] = 0

    def test_mutation_after_materialization_leaves_arrays(self):
        trace = Trace("t", [4, 8, 12], [1, 0, 1], [1, 2, 3])
        arrays = TraceArrays.from_trace(trace)
        trace.pcs[0] = 400
        trace.takens[1] = 1
        assert list(arrays.pcs) == [4, 8, 12]
        assert list(arrays.takens) == [1, 0, 1]

    def test_new_trace_object_gets_its_own_arrays(self):
        from repro.sim.fast import arrays as arrays_module

        columns = ([4, 8, 12], [1, 0, 1], [1, 2, 3])
        first = Trace("t", *columns)
        second = Trace("t", *columns)
        first_arrays = TraceArrays.from_trace(first)
        second_arrays = TraceArrays.from_trace(second)
        assert second_arrays is not first_arrays
        assert list(second_arrays.pcs) == list(first_arrays.pcs)
        # One entry: the memo now holds the second trace only.
        memo_trace, memo_arrays = arrays_module._LAST_MATERIALIZED
        assert memo_trace is second and memo_arrays is second_arrays
        assert TraceArrays.from_trace(first) is not first_arrays

    def test_caller_pcs_array_is_copied(self):
        """An ndarray PC column is copied, never frozen in place."""
        pcs = np.array([4, 8], dtype=np.int64)
        trace = Trace("t", [4, 8], [1, 0], [1, 1])
        trace.pcs = pcs
        arrays = TraceArrays.from_trace(trace)
        assert arrays.pcs is not pcs
        pcs[0] = 40  # still writable
