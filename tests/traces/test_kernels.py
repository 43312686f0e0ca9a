"""Tests for branch behaviour kernels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import mask, parity
from repro.common.rng import SplitMix64
from repro.traces.kernels import (
    BiasedKernel,
    HistoryFunctionKernel,
    HistoryParityKernel,
    LocalPatternKernel,
    LoopKernel,
    NestedLoopKernel,
    PatternKernel,
)


class TestBiasedKernel:
    def test_extremes(self):
        always = BiasedKernel(p_taken=1.0, seed=1)
        never = BiasedKernel(p_taken=0.0, seed=1)
        assert all(always.next_outcome(0) for _ in range(50))
        assert not any(never.next_outcome(0) for _ in range(50))

    def test_rate_matches_probability(self):
        kernel = BiasedKernel(p_taken=0.8, seed=7)
        rate = sum(kernel.next_outcome(0) for _ in range(5000)) / 5000
        assert 0.76 < rate < 0.84

    def test_reset_replays(self):
        kernel = BiasedKernel(p_taken=0.5, seed=3)
        first = [kernel.next_outcome(0) for _ in range(32)]
        kernel.reset()
        assert [kernel.next_outcome(0) for _ in range(32)] == first

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            BiasedKernel(p_taken=1.5, seed=0)


class TestLoopKernel:
    def test_trip_pattern(self):
        kernel = LoopKernel(trip_count=3)
        assert [kernel.next_outcome(0) for _ in range(6)] == [True, True, False] * 2

    def test_trip_one_never_taken(self):
        kernel = LoopKernel(trip_count=1)
        assert not any(kernel.next_outcome(0) for _ in range(5))

    def test_invalid_trip(self):
        with pytest.raises(ValueError):
            LoopKernel(trip_count=0)

    def test_reset(self):
        kernel = LoopKernel(trip_count=4)
        kernel.next_outcome(0)
        kernel.reset()
        assert [kernel.next_outcome(0) for _ in range(4)] == [True, True, True, False]

    @given(st.integers(min_value=1, max_value=40))
    def test_exactly_one_exit_per_trip(self, trip):
        kernel = LoopKernel(trip_count=trip)
        outcomes = [kernel.next_outcome(0) for _ in range(trip * 3)]
        assert outcomes.count(False) == 3


class TestPatternKernel:
    def test_cycles(self):
        kernel = PatternKernel((True, False, False))
        assert [kernel.next_outcome(0) for _ in range(7)] == [
            True, False, False, True, False, False, True,
        ]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PatternKernel(())

    def test_reset(self):
        kernel = PatternKernel((True, False))
        kernel.next_outcome(0)
        kernel.reset()
        assert kernel.next_outcome(0) is True


class TestHistoryParityKernel:
    def test_pure_parity(self):
        kernel = HistoryParityKernel(depth=4, noise=0.0)
        for window in (0b0000, 0b0001, 0b0110, 0b1111, 0b1011):
            assert kernel.next_outcome(window) == bool(parity(window & mask(4)))

    def test_noise_rate(self):
        kernel = HistoryParityKernel(depth=4, noise=0.25, seed=5)
        flips = sum(
            kernel.next_outcome(0b1010) != bool(parity(0b1010)) for _ in range(4000)
        )
        assert 0.2 < flips / 4000 < 0.3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            HistoryParityKernel(depth=0)
        with pytest.raises(ValueError):
            HistoryParityKernel(depth=3, noise=2.0)

    def test_reset_replays_noise(self):
        kernel = HistoryParityKernel(depth=3, noise=0.5, seed=9)
        first = [kernel.next_outcome(5) for _ in range(20)]
        kernel.reset()
        assert [kernel.next_outcome(5) for _ in range(20)] == first


class TestHistoryFunctionKernel:
    def test_deterministic_per_window(self):
        kernel = HistoryFunctionKernel(depth=6, noise=0.0, seed=11)
        for window in range(32):
            first = kernel.next_outcome(window)
            assert kernel.next_outcome(window) == first

    def test_function_depends_only_on_window(self):
        kernel = HistoryFunctionKernel(depth=4, noise=0.0, seed=2)
        assert kernel.next_outcome(0b10101) == kernel.next_outcome(0b00101)

    def test_different_seeds_different_functions(self):
        a = HistoryFunctionKernel(depth=8, noise=0.0, seed=1)
        b = HistoryFunctionKernel(depth=8, noise=0.0, seed=2)
        table_a = [a.next_outcome(w) for w in range(64)]
        table_b = [b.next_outcome(w) for w in range(64)]
        assert table_a != table_b

    def test_truth_table_is_balanced(self):
        kernel = HistoryFunctionKernel(depth=10, noise=0.0, seed=4)
        ones = sum(kernel.next_outcome(w) for w in range(1024))
        assert 380 < ones < 650

    def test_invalid(self):
        with pytest.raises(ValueError):
            HistoryFunctionKernel(depth=-1)


class TestLocalPatternKernel:
    def test_cycles_with_period(self):
        kernel = LocalPatternKernel(length=5, seed=3)
        first_cycle = [kernel.next_outcome(0) for _ in range(5)]
        second_cycle = [kernel.next_outcome(0) for _ in range(5)]
        assert first_cycle == second_cycle
        assert first_cycle == list(kernel.pattern)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            LocalPatternKernel(length=0, seed=0)


class TestNestedLoopKernel:
    def test_phase_sequence(self):
        kernel = NestedLoopKernel((3, 2))
        outcomes = [kernel.next_outcome(0) for _ in range(10)]
        # T T N (trip 3), T N (trip 2), T T N, T N
        assert outcomes == [True, True, False, True, False, True, True, False, True, False]

    def test_invalid(self):
        with pytest.raises(ValueError):
            NestedLoopKernel(())
        with pytest.raises(ValueError):
            NestedLoopKernel((2, 0))

    @given(st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_exit_count_matches_phases(self, trips):
        kernel = NestedLoopKernel(trips)
        total = sum(trips)
        outcomes = [kernel.next_outcome(0) for _ in range(total * 2)]
        assert outcomes.count(False) == 2 * len(trips)


class TestLoopBursts:
    """``burst(limit)`` is ``next_outcome`` called until the not-taken
    exit or ``limit`` calls, whichever comes first."""

    @staticmethod
    def _stepped(kernel, limit):
        outcomes = []
        while len(outcomes) < limit:
            outcomes.append(kernel.next_outcome(0))
            if not outcomes[-1]:
                break
        return outcomes

    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_burst_matches_stepping(self, trips, limits):
        for make in (lambda: LoopKernel(trips[0]), lambda: NestedLoopKernel(trips)):
            burst, stepped = make(), make()
            for limit in limits:
                taken, exited = burst.burst(limit)
                assert [True] * taken + [False] * exited == self._stepped(stepped, limit)


class TestInlineDraws:
    """The random kernels draw their SplitMix64 streams inline; each
    must give what the generator object gives."""

    @given(st.integers(0, 2**64 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=40)
    def test_biased_matches_generator(self, seed, p_taken):
        kernel = BiasedKernel(p_taken=p_taken, seed=seed)
        rng = SplitMix64(seed)
        assert [kernel.next_outcome(0) for _ in range(50)] == [
            rng.next_float() < p_taken for _ in range(50)
        ]

    @given(st.integers(0, 2**64 - 1), st.integers(1, 12), st.floats(0.0, 1.0))
    @settings(max_examples=40)
    def test_history_kernels_match_generator(self, seed, depth, noise):
        parity_kernel = HistoryParityKernel(depth=depth, noise=noise, seed=seed)
        function_kernel = HistoryFunctionKernel(depth=depth, noise=noise, seed=seed)
        fn_seed = SplitMix64(seed ^ 0x5BD1E995).next_u64()
        parity_noise, function_noise = SplitMix64(seed), SplitMix64(seed)
        for history in range(0, 5000, 37):
            window = history & mask(depth)
            expected = bool(parity(window))
            if noise and parity_noise.next_float() < noise:
                expected = not expected
            assert parity_kernel.next_outcome(history) == expected
            expected = bool(SplitMix64(fn_seed ^ window).next_u64() & 1)
            if noise and function_noise.next_float() < noise:
                expected = not expected
            assert function_kernel.next_outcome(history) == expected

