"""Unit and statistical tests for repro.common.rng."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import (
    SPLITMIX64_GAMMA,
    Lfsr32,
    SplitMix64,
    XorShift32,
    splitmix64_draws,
    splitmix64_mix,
    splitmix64_stream,
)


class TestLfsr32:
    def test_deterministic(self):
        a = Lfsr32(seed=123)
        b = Lfsr32(seed=123)
        assert [a.next_bit() for _ in range(64)] == [b.next_bit() for _ in range(64)]

    def test_zero_seed_replaced(self):
        lfsr = Lfsr32(seed=0)
        assert lfsr.state != 0

    def test_never_reaches_zero_state(self):
        lfsr = Lfsr32(seed=1)
        for _ in range(10_000):
            lfsr.next_bit()
            assert lfsr.state != 0

    def test_bits_are_balanced(self):
        lfsr = Lfsr32(seed=0xACE1)
        ones = sum(lfsr.next_bit() for _ in range(20_000))
        assert 9_000 < ones < 11_000

    def test_next_bits_packing(self):
        a = Lfsr32(seed=77)
        b = Lfsr32(seed=77)
        packed = a.next_bits(8)
        unpacked = sum(b.next_bit() << i for i in range(8))
        assert packed == unpacked

    def test_negative_bit_count(self):
        with pytest.raises(ValueError):
            Lfsr32().next_bits(-1)

    def test_one_in_pow2_zero_is_always(self):
        lfsr = Lfsr32(seed=5)
        assert all(lfsr.one_in_pow2(0) for _ in range(100))

    def test_one_in_pow2_negative(self):
        with pytest.raises(ValueError):
            Lfsr32().one_in_pow2(-1)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_one_in_pow2_rate(self, k):
        """Empirical rate of one_in_pow2(k) is ~1/2^k."""
        lfsr = Lfsr32(seed=0xBEEF)
        trials = 40_000
        hits = sum(lfsr.one_in_pow2(k) for _ in range(trials))
        expected = trials / (1 << k)
        assert 0.5 * expected < hits < 1.7 * expected


class TestXorShift32:
    def test_deterministic(self):
        assert [XorShift32(9).next_u32() for _ in range(8)] == [
            XorShift32(9).next_u32() for _ in range(8)
        ]

    def test_zero_seed_replaced(self):
        rng = XorShift32(seed=0)
        assert rng.next_u32() != 0

    @given(st.integers(min_value=1, max_value=1000))
    def test_next_below_in_range(self, bound):
        rng = XorShift32(seed=bound)
        for _ in range(20):
            assert 0 <= rng.next_below(bound) < bound

    def test_next_below_invalid(self):
        with pytest.raises(ValueError):
            XorShift32().next_below(0)

    def test_next_float_range(self):
        rng = XorShift32(seed=4)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6


class TestSplitMix64:
    def test_deterministic(self):
        assert SplitMix64(3).next_u64() == SplitMix64(3).next_u64()

    def test_distinct_seeds_distinct_streams(self):
        a = [SplitMix64(1).next_u64() for _ in range(4)]
        b = [SplitMix64(2).next_u64() for _ in range(4)]
        assert a != b

    def test_fork_independence(self):
        parent = SplitMix64(42)
        child = parent.fork()
        assert child.next_u64() != parent.next_u64()

    @given(st.integers(min_value=1, max_value=10**9))
    def test_next_below_in_range(self, bound):
        rng = SplitMix64(seed=bound)
        assert 0 <= rng.next_below(bound) < bound

    def test_next_below_invalid(self):
        with pytest.raises(ValueError):
            SplitMix64().next_below(-5)

    def test_float_statistics(self):
        rng = SplitMix64(seed=99)
        values = [rng.next_float() for _ in range(5000)]
        mean = sum(values) / len(values)
        assert 0.48 < mean < 0.52
        assert all(0.0 <= v < 1.0 for v in values)


class TestSplitMix64Counter:
    """Draw k of ``SplitMix64(seed)`` is ``mix(seed + k·γ)``: the
    property the lazy workload kernels and batched draws rely on."""

    @given(st.integers(-(2**64), 2**65), st.integers(1, 40))
    def test_draw_k_is_mix_of_counter(self, seed, k):
        rng = SplitMix64(seed)
        for _ in range(k - 1):
            rng.next_u64()
        assert rng.next_u64() == splitmix64_mix((seed + k * SPLITMIX64_GAMMA) % 2**64)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 40))
    def test_resuming_at_a_counter_continues_the_stream(self, seed, k):
        rng = SplitMix64(seed)
        for _ in range(k):
            rng.next_u64()
        resumed = SplitMix64(seed + k * SPLITMIX64_GAMMA)
        assert [resumed.next_u64() for _ in range(5)] == [rng.next_u64() for _ in range(5)]

    @given(
        st.integers(-(2**64), 2**65),
        st.one_of(st.integers(0, 70), st.sampled_from((1023, 1024, 1025, 2049, 3000))),
    )
    @settings(max_examples=60)
    def test_batched_draws_match_the_generator(self, seed, n):
        rng = SplitMix64(seed)
        expected = [rng.next_u64() for _ in range(n)]
        assert splitmix64_draws(seed, n) == expected
        assert list(itertools.islice(splitmix64_stream(seed), n)) == expected

