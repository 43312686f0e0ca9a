"""Deterministic pseudo-random sources.

The paper's modified 3-bit counter automaton takes the transition into the
saturated state "only randomly with a small probability" (1/128 in the
illustrated experiments).  In hardware this is a free-running LFSR; here we
provide a Galois LFSR (:class:`Lfsr32`) plus two conventional software
generators used by workload construction (:class:`SplitMix64`) and by the
predictor's allocation tie-breaking (:class:`XorShift32`).

All generators are seedable and fully deterministic so every experiment in
the repository is reproducible bit-for-bit.
"""

from __future__ import annotations

import functools
import itertools
import struct
from typing import Callable, Iterator

__all__ = [
    "Lfsr32",
    "XorShift32",
    "SplitMix64",
    "SPLITMIX64_GAMMA",
    "SPLITMIX64_MUL1",
    "SPLITMIX64_MUL2",
    "SPLITMIX64_FLOAT_DIVISOR",
    "splitmix64_mix",
    "splitmix64_draws",
    "splitmix64_stream",
]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: SplitMix64's counter increment (the "golden gamma", 2**64 / phi).
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
#: The two multipliers of SplitMix64's output mix.
SPLITMIX64_MUL1 = 0xBF58476D1CE4E5B9
SPLITMIX64_MUL2 = 0x94D049BB133111EB
#: ``SplitMix64.next_float`` is a draw's top 53 bits divided by this.
SPLITMIX64_FLOAT_DIVISOR = 9007199254740992.0  # 2**53


class Lfsr32:
    """32-bit Galois LFSR with the maximal-length taps 0xA3000000.

    ``one_in_pow2(k)`` models the hardware trick of AND-ing ``k`` LFSR bits
    to obtain a ``1/2**k`` probability signal.

    >>> lfsr = Lfsr32(seed=1)
    >>> bits = [lfsr.next_bit() for _ in range(8)]
    >>> all(b in (0, 1) for b in bits)
    True
    """

    __slots__ = ("_state",)

    _TAPS = 0xA3000000

    def __init__(self, seed: int = 0xDEADBEEF) -> None:
        seed &= _MASK32
        if seed == 0:
            seed = 0xDEADBEEF  # the all-zero state is absorbing for an LFSR
        self._state = seed

    @property
    def state(self) -> int:
        return self._state

    def next_bit(self) -> int:
        """Advance one step and return the output bit."""
        lsb = self._state & 1
        self._state >>= 1
        if lsb:
            self._state ^= self._TAPS
        return lsb

    def next_bits(self, n: int) -> int:
        """Advance ``n`` steps and return them packed LSB-first."""
        if n < 0:
            raise ValueError(f"bit count must be non-negative, got {n}")
        value = 0
        for i in range(n):
            value |= self.next_bit() << i
        return value

    def one_in_pow2(self, log2_denominator: int) -> bool:
        """Return True with probability ``1 / 2**log2_denominator``.

        ``log2_denominator == 0`` always returns True (probability 1),
        matching the upper end of the paper's adaptive range.
        """
        if log2_denominator < 0:
            raise ValueError(f"log2 denominator must be non-negative, got {log2_denominator}")
        if log2_denominator == 0:
            return True
        return self.next_bits(log2_denominator) == 0


class XorShift32:
    """Marsaglia xorshift32: fast uniform 32-bit generator.

    >>> rng = XorShift32(seed=42)
    >>> 0 <= rng.next_below(10) < 10
    True
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0x12345678) -> None:
        seed &= _MASK32
        if seed == 0:
            seed = 0x12345678
        self._state = seed

    def next_u32(self) -> int:
        x = self._state
        x ^= (x << 13) & _MASK32
        x ^= x >> 17
        x ^= (x << 5) & _MASK32
        self._state = x
        return x

    def next_below(self, bound: int) -> int:
        """Uniform-ish integer in ``[0, bound)`` (modulo bias is acceptable
        for allocation tie-breaking)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u32() % bound

    def next_float(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self.next_u32() / 4294967296.0


def splitmix64_mix(counter: int) -> int:
    """SplitMix64's output function: the draw for one counter value.

    ``SplitMix64(seed)``'s k-th draw (k >= 1) is
    ``splitmix64_mix((seed + k * SPLITMIX64_GAMMA) % 2**64)``.
    """
    z = ((counter ^ (counter >> 30)) * SPLITMIX64_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * SPLITMIX64_MUL2) & _MASK64
    return z ^ (z >> 31)


#: Most draws :func:`splitmix64_draws` computes per big-int pass.
_MAX_LANES = 1024


@functools.lru_cache(maxsize=None)
def _lane_layout(lanes: int) -> tuple[int, int, int, Callable[[bytes], tuple]]:
    """Constants of a ``lanes``-draw pass: ``sum(k·γ in lane k-1)``, a 1
    in every lane, a 64-bit mask in every lane, and the unpacker of the
    low 64 bits of every 128-bit lane."""
    layout = "<" + "Q8x" * lanes
    ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    steps = int.from_bytes(struct.pack(layout, *range(1, lanes + 1)), "little")
    return steps * SPLITMIX64_GAMMA, ones, ones * _MASK64, struct.Struct(layout).unpack


def splitmix64_draws(counter: int, n: int) -> list[int]:
    """The ``n`` draws of a SplitMix64 stream after counter ``counter``.

    Equal to ``[splitmix64_mix((counter + k * SPLITMIX64_GAMMA) % 2**64)
    for k in range(1, n + 1)]`` (``SplitMix64(counter)``'s next ``n``
    draws), at a fraction of the interpreter cost: up to 1024 draws are
    computed per pass, each in its own 128-bit lane of one Python int, so
    every step of the mix is one big-int operation over all of them.  A
    64-bit lane times a 64-bit multiplier fits its 128 bits, and masking
    every lane to 64 bits before each multiply keeps lanes from leaking
    into each other.
    """
    draws: list[int] = []
    while n > 0:
        lanes = min(_MAX_LANES, 1 << (n - 1).bit_length())
        steps, ones, lane_mask, unpack = _lane_layout(lanes)
        z = (steps + (counter & _MASK64) * ones) & lane_mask
        z = (((z ^ (z >> 30)) & lane_mask) * SPLITMIX64_MUL1) & lane_mask
        z = (((z ^ (z >> 27)) & lane_mask) * SPLITMIX64_MUL2) & lane_mask
        batch = unpack((z ^ (z >> 31)).to_bytes(16 * lanes, "little"))
        draws += batch[:n] if n < lanes else batch
        counter += lanes * SPLITMIX64_GAMMA
        n -= lanes
    return draws


def splitmix64_stream(counter: int) -> Iterator[int]:
    """Every draw of ``SplitMix64(counter)``, in order, without end.

    The draws come from :func:`splitmix64_draws` a full pass at a time,
    so taking one costs an iterator step rather than a method call and
    a mix in the interpreter.
    """
    return itertools.chain.from_iterable(
        splitmix64_draws(counter + batch * _MAX_LANES * SPLITMIX64_GAMMA, _MAX_LANES)
        for batch in itertools.count()
    )


class SplitMix64:
    """SplitMix64: high-quality 64-bit generator used by trace synthesis.

    SplitMix64 is *counter-based*: the state only ever advances by
    :data:`SPLITMIX64_GAMMA`, and each draw is a pure function of it, so
    draw k of ``SplitMix64(seed)`` is ``mix(seed + k·γ)``
    (:func:`splitmix64_mix`).  Any draw can therefore be computed
    without the ones before it, and ``SplitMix64(seed + k·γ)`` continues
    the stream after its k-th draw.  Trace synthesis relies on this to
    compute draws in batches (:func:`splitmix64_draws`), to run a
    kernel's generator from a bare counter, and to defer building a
    branch kernel until the branch first executes.

    >>> rng = SplitMix64(seed=7)
    >>> first, second = rng.next_u64(), rng.next_u64()
    >>> first != second
    True
    >>> second == splitmix64_mix((7 + 2 * SPLITMIX64_GAMMA) % 2**64)
    True
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def next_float(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return (self.next_u64() >> 11) / SPLITMIX64_FLOAT_DIVISOR

    def fork(self) -> "SplitMix64":
        """Derive an independent child generator (for per-branch streams)."""
        return SplitMix64(self.next_u64())
