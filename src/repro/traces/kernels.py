"""Branch behaviour kernels.

Each *static branch* in a synthetic workload owns a kernel instance that
decides the branch's outcome each time the branch executes.  The kernel
families mirror the branch populations a branch-prediction study cares
about, because the TAGE confidence classes are a function of these
behaviour categories (DESIGN.md §2):

* :class:`BiasedKernel` — independently random with a fixed taken
  probability.  Strongly biased instances (p near 0 or 1) are
  bimodal-predictable (``high-conf-bim``); mid-range instances are
  intrinsically unpredictable and feed the low-confidence classes.
* :class:`LoopKernel` — ``n-1`` taken iterations then one not-taken exit;
  predictable by a tagged component whose history covers the trip count.
* :class:`PatternKernel` — a fixed repeating direction pattern.
* :class:`HistoryParityKernel` — outcome is the parity of the last *k*
  global outcomes (plus optional noise): the canonical
  history-correlated branch that only a global-history predictor learns.
* :class:`HistoryFunctionKernel` — outcome is a pseudo-random but *fixed*
  boolean function of the last *k* global outcomes: learnable, but only
  with enough tagged-table capacity (one entry per reachable history).
* :class:`LocalPatternKernel` — a pattern over the branch's *own*
  occurrences, which a global-history predictor sees through the
  interleaving of other branches.
* :class:`NestedLoopKernel` — inner loop whose trip count varies with an
  outer loop, exercising longer histories.

Kernels are deliberately tiny state machines with an explicit
``next_outcome(global_history) -> bool`` interface; ``global_history``
packs the most recent global outcomes in bit 0 (newest) upward.

The random kernels run once per dynamic branch, so they draw their
:class:`~repro.common.rng.SplitMix64` stream inline from a counter
(draw k of ``SplitMix64(seed)`` is ``mix(seed + k·γ)``) instead of
calling a generator object: the same values, without two method calls
per draw.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.common.bitops import mask
from repro.common.rng import (
    SPLITMIX64_FLOAT_DIVISOR as _TWO53,
    SPLITMIX64_GAMMA as _GAMMA,
    SPLITMIX64_MUL1 as _MUL1,
    SPLITMIX64_MUL2 as _MUL2,
    SplitMix64,
    splitmix64_mix,
)

__all__ = [
    "BranchKernel",
    "BiasedKernel",
    "LoopKernel",
    "PatternKernel",
    "HistoryParityKernel",
    "HistoryFunctionKernel",
    "LocalPatternKernel",
    "NestedLoopKernel",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF


class BranchKernel(ABC):
    """Outcome model for one static branch."""

    @abstractmethod
    def next_outcome(self, global_history: int) -> bool:
        """Resolve the next execution of this branch.

        Args:
            global_history: recent global branch outcomes, newest in bit 0.
        """

    def reset(self) -> None:
        """Return the kernel to its initial state (default: stateless)."""


# The kernels below have a C twin inside the ``trace-synth`` group of
# :mod:`repro.sim.fast.compiled` (see :func:`repro.traces.workload.synthesize`).
# repro: parity-begin trace-synth/pure-kernels fingerprint=2c72842c
class BiasedKernel(BranchKernel):
    """Independently random outcome, taken with probability ``p_taken``.

    >>> k = BiasedKernel(p_taken=1.0, seed=1)
    >>> k.next_outcome(0)
    True
    """

    __slots__ = ("p_taken", "_seed", "_counter")

    def __init__(self, p_taken: float, seed: int) -> None:
        if not 0.0 <= p_taken <= 1.0:
            raise ValueError(f"p_taken must be in [0, 1], got {p_taken}")
        self.p_taken = p_taken
        self._seed = seed
        self._counter = seed & _MASK64

    def next_outcome(self, global_history: int) -> bool:
        # SplitMix64(seed).next_float() < p_taken, drawn inline.
        z = self._counter = (self._counter + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
        return ((z ^ (z >> 31)) >> 11) / _TWO53 < self.p_taken

    def reset(self) -> None:
        self._counter = self._seed & _MASK64


class LoopKernel(BranchKernel):
    """Loop back-edge: taken ``trip_count - 1`` times, then not taken once.

    A trip count of 1 degenerates to always-not-taken.

    >>> k = LoopKernel(trip_count=3)
    >>> [k.next_outcome(0) for _ in range(6)]
    [True, True, False, True, True, False]
    """

    __slots__ = ("trip_count", "_iteration")

    def __init__(self, trip_count: int) -> None:
        if trip_count < 1:
            raise ValueError(f"trip count must be >= 1, got {trip_count}")
        self.trip_count = trip_count
        self._iteration = 0

    def next_outcome(self, global_history: int) -> bool:
        self._iteration += 1
        if self._iteration >= self.trip_count:
            self._iteration = 0
            return False
        return True

    def burst(self, limit: int) -> tuple[int, bool]:
        """Up to ``limit`` executions, stopping at the not-taken exit.

        Equivalent to calling :meth:`next_outcome` until it returns
        False or ``limit`` calls have been made.  Returns
        ``(taken, exited)``: the taken executions, then whether the
        exit followed them.

        >>> k = LoopKernel(trip_count=4)
        >>> k.burst(2), k.burst(5), k.burst(1)
        ((2, False), (1, True), (1, False))
        """
        taken = min(limit, self.trip_count - 1 - self._iteration)
        if taken < limit:
            self._iteration = 0
            return taken, True
        self._iteration += taken
        return taken, False

    def reset(self) -> None:
        self._iteration = 0


class PatternKernel(BranchKernel):
    """Fixed cyclic direction pattern.

    >>> k = PatternKernel((True, False, False))
    >>> [k.next_outcome(0) for _ in range(4)]
    [True, False, False, True]
    """

    __slots__ = ("pattern", "_position")

    def __init__(self, pattern: Sequence[bool]) -> None:
        if not pattern:
            raise ValueError("pattern must be non-empty")
        self.pattern = tuple(bool(p) for p in pattern)
        self._position = 0

    def next_outcome(self, global_history: int) -> bool:
        outcome = self.pattern[self._position]
        self._position = (self._position + 1) % len(self.pattern)
        return outcome

    def reset(self) -> None:
        self._position = 0


class HistoryParityKernel(BranchKernel):
    """Outcome is the parity of the last ``depth`` global outcomes,
    inverted with probability ``noise``.

    A global-history predictor whose history length covers ``depth`` learns
    this exactly; a bimodal predictor sees a ~50 % coin.
    """

    __slots__ = ("depth", "noise", "_window", "_seed", "_counter")

    def __init__(self, depth: int, noise: float = 0.0, seed: int = 0) -> None:
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        if not 0.0 <= noise <= 1.0:
            raise ValueError(f"noise must be in [0, 1], got {noise}")
        self.depth = depth
        self.noise = noise
        self._window = mask(depth)
        self._seed = seed
        self._counter = seed & _MASK64

    def next_outcome(self, global_history: int) -> bool:
        outcome = bool((global_history & self._window).bit_count() & 1)
        if self.noise:
            # Noise inversion: SplitMix64(seed).next_float() < noise, inline.
            z = self._counter = (self._counter + _GAMMA) & _MASK64
            z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
            z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
            if ((z ^ (z >> 31)) >> 11) / _TWO53 < self.noise:
                return not outcome
        return outcome

    def reset(self) -> None:
        self._counter = self._seed & _MASK64


class HistoryFunctionKernel(BranchKernel):
    """Outcome is a fixed pseudo-random boolean function of the last
    ``depth`` global outcomes, inverted with probability ``noise``.

    Unlike parity, the function has no compact structure, so a predictor
    must dedicate a table entry per reachable history value — this is the
    kernel that makes predictor *capacity* matter.
    """

    __slots__ = ("depth", "noise", "_window", "_fn_seed", "_seed", "_counter")

    def __init__(self, depth: int, noise: float = 0.0, seed: int = 0) -> None:
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        if not 0.0 <= noise <= 1.0:
            raise ValueError(f"noise must be in [0, 1], got {noise}")
        self.depth = depth
        self.noise = noise
        self._window = mask(depth)
        self._fn_seed = SplitMix64(seed ^ 0x5BD1E995).next_u64()
        self._seed = seed
        self._counter = seed & _MASK64

    def next_outcome(self, global_history: int) -> bool:
        # Fixed hash of (function seed, history window): a stable truth
        # table.  It is the first draw of SplitMix64(fn_seed ^ window).
        z = ((self._fn_seed ^ (global_history & self._window)) + _GAMMA) & _MASK64
        outcome = bool(splitmix64_mix(z) & 1)
        if self.noise:
            # Noise inversion: SplitMix64(seed).next_float() < noise, inline.
            z = self._counter = (self._counter + _GAMMA) & _MASK64
            z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
            z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
            if ((z ^ (z >> 31)) >> 11) / _TWO53 < self.noise:
                return not outcome
        return outcome

    def reset(self) -> None:
        self._counter = self._seed & _MASK64


class LocalPatternKernel(BranchKernel):
    """Pattern over the branch's own executions (local history behaviour).

    Equivalent to :class:`PatternKernel` in isolation, but the pattern is
    generated pseudo-randomly from a seed with a given length, so workload
    specs can create many distinct instances cheaply.
    """

    __slots__ = ("length", "_pattern", "_position")

    def __init__(self, length: int, seed: int) -> None:
        if length <= 0:
            raise ValueError(f"pattern length must be positive, got {length}")
        self.length = length
        rng = SplitMix64(seed)
        self._pattern = tuple(bool(rng.next_u64() & 1) for _ in range(length))
        self._position = 0

    @property
    def pattern(self) -> tuple[bool, ...]:
        return self._pattern

    def next_outcome(self, global_history: int) -> bool:
        outcome = self._pattern[self._position]
        self._position = (self._position + 1) % self.length
        return outcome

    def reset(self) -> None:
        self._position = 0


class NestedLoopKernel(BranchKernel):
    """Inner-loop back-edge whose trip count cycles with an outer loop.

    The sequence of trip counts repeats with period ``len(trip_counts)``,
    e.g. ``(4, 4, 7)`` produces TTTN TTTN TTTTTTN forever.  Correct
    prediction of every exit requires history covering the longest trip
    count plus the phase of the outer loop.
    """

    __slots__ = ("trip_counts", "_outer_index", "_iteration")

    def __init__(self, trip_counts: Sequence[int]) -> None:
        if not trip_counts:
            raise ValueError("trip_counts must be non-empty")
        for count in trip_counts:
            if count < 1:
                raise ValueError(f"trip counts must be >= 1, got {count}")
        self.trip_counts = tuple(trip_counts)
        self._outer_index = 0
        self._iteration = 0

    def next_outcome(self, global_history: int) -> bool:
        self._iteration += 1
        if self._iteration >= self.trip_counts[self._outer_index]:
            self._iteration = 0
            self._outer_index = (self._outer_index + 1) % len(self.trip_counts)
            return False
        return True

    def burst(self, limit: int) -> tuple[int, bool]:
        """Up to ``limit`` executions, stopping at the not-taken exit
        (see :meth:`LoopKernel.burst`)."""
        taken = min(limit, self.trip_counts[self._outer_index] - 1 - self._iteration)
        if taken < limit:
            self._iteration = 0
            self._outer_index = (self._outer_index + 1) % len(self.trip_counts)
            return taken, True
        self._iteration += taken
        return taken, False

    def reset(self) -> None:
        self._outer_index = 0
        self._iteration = 0
    # repro: parity-end trace-synth/pure-kernels
