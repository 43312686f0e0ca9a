"""Synthetic workload construction.

A :class:`SyntheticWorkload` models a program as a set of *routines*, each
a fixed sequence of static branches.  Execution repeatedly selects a
routine (with a Zipf-like popularity distribution, so some code is hot and
some cold) and runs through its branches; each static branch resolves its
direction with its behaviour kernel (:mod:`repro.traces.kernels`).

This structure gives the generated trace the properties the paper's
evaluation depends on:

* **program-like control flow**: loop branches execute their full
  iteration burst (T…TN) in place, routines repeat consecutively
  (inner-loop bodies), and routine succession follows a sparse
  transition graph — so (PC, global-history) contexts *recur* and the
  tagged TAGE components can actually learn, exactly like compiled code;
* a controllable static branch working set (``n_static``) so small
  predictors experience capacity/aliasing pressure like the paper's
  SERV traces;
* controllable fractions of biased / loop / pattern / history-correlated /
  noisy branches via :class:`KernelMix`.

Everything is derived deterministically from ``WorkloadSpec.seed``.

Kernels are built on first execution.  Construction draws every static
branch's address and category, records the SplitMix64 counter where the
branch's kernel draws would start and skips the counter past them (the
generator is counter-based, see :class:`~repro.common.rng.SplitMix64`);
:attr:`StaticBranch.kernel` builds the kernel from that counter on first
access.  At the suites' quick length most static branches never
execute, so most kernels are never built, and every stream is the one
an eager build gives.  The construction and execution loops take their
draws from batches :func:`~repro.common.rng.splitmix64_draws` computes
up to a thousand at a time, not from one generator method call per
draw, and a loop branch runs its iteration burst in one kernel call
(:meth:`~repro.traces.kernels.LoopKernel.burst`).

:func:`synthesize` is one-shot synthesis, the path of every CBP trace
name (:class:`repro.traces.sources.base.SuiteTraceSource`, so
``resolve_trace``, the sweep workers and the apps artifacts).  When the C
build of :mod:`repro.sim.fast.compiled` resolves, it runs that module's
``trace-synth`` twin of the construction and walk below: every kernel
built eagerly (the draws are counter-based, so eager and lazy builds
agree), the routine walk in C, the same bytes.  The 40 CBP traces at
the quick length take ~7 ms that way against ~0.17 s here (2-core
x86-64 box, ``BENCH_synthesis_twin.json``).  The objects stay pure:
a second :meth:`SyntheticWorkload.generate` continuing kernel state,
:meth:`SyntheticWorkload.reset`, :attr:`StaticBranch.kernel`, and the
zoo sources built on them (``zoo.phase`` resumes its segments).
"""

from __future__ import annotations

import bisect
import sys
from array import array
from dataclasses import dataclass, field
from itertools import islice

from repro.common.bitops import mask
from repro.common.rng import SPLITMIX64_FLOAT_DIVISOR as _TWO53
from repro.common.rng import SPLITMIX64_GAMMA as _GAMMA
from repro.common.rng import SplitMix64, splitmix64_draws, splitmix64_stream
from repro.traces.kernels import (
    BiasedKernel,
    BranchKernel,
    HistoryFunctionKernel,
    HistoryParityKernel,
    LocalPatternKernel,
    LoopKernel,
    NestedLoopKernel,
    PatternKernel,
)
from repro.traces.types import Trace

__all__ = ["KernelMix", "WorkloadSpec", "StaticBranch", "SyntheticWorkload", "synthesize"]

_GLOBAL_HISTORY_BITS = 32
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Offset of an int64's low byte in its native image.
_LOW_BYTE = 0 if sys.byteorder == "little" else 7

#: Categories whose branch executes a whole loop burst per visit.
_LOOP_CATEGORIES = ("loop", "nested_loop")


@dataclass(frozen=True)
class KernelMix:
    """Relative weights of the branch behaviour categories.

    Weights need not sum to one; they are normalized at build time.
    """

    biased_strong: float = 0.45
    biased_noisy: float = 0.10
    loop: float = 0.12
    pattern: float = 0.08
    parity: float = 0.08
    history_fn: float = 0.09
    local_pattern: float = 0.05
    nested_loop: float = 0.03

    def as_items(self) -> list[tuple[str, float]]:
        items = [
            ("biased_strong", self.biased_strong),
            ("biased_noisy", self.biased_noisy),
            ("loop", self.loop),
            ("pattern", self.pattern),
            ("parity", self.parity),
            ("history_fn", self.history_fn),
            ("local_pattern", self.local_pattern),
            ("nested_loop", self.nested_loop),
        ]
        for name, weight in items:
            if weight < 0:
                raise ValueError(f"kernel mix weight {name} must be >= 0, got {weight}")
        if sum(weight for _, weight in items) <= 0:
            raise ValueError("kernel mix weights must not all be zero")
        return items


@dataclass(frozen=True)
class WorkloadSpec:
    """Full parameterization of a synthetic workload.

    Attributes:
        name: trace name (e.g. ``"INT-1"`` or ``"300.twolf"``).
        seed: master seed; two specs differing only in seed produce
            statistically similar but distinct traces.
        n_static: number of static branches (the working set).
        n_routines: number of routines the static branches are spread over.
        routine_len: (min, max) branches per routine.
        routine_zipf_s: Zipf exponent of routine popularity (0 = uniform;
            larger = hotter hot code).
        routine_repeat: (min, max) consecutive executions per routine
            visit (inner-loop style repetition; this is what makes
            global-history contexts recur).
        transition_locality: probability that the next routine comes from
            this routine's small successor set rather than a global
            Zipf draw (models call-graph locality).
        mix: behaviour category weights.
        strong_bias: (min, max) taken-probability magnitude for strongly
            biased branches (the direction is chosen per branch).
        noisy_bias: (min, max) taken probability for noisy branches.
        loop_trips: (min, max) loop trip counts.
        pattern_len: (min, max) fixed-pattern lengths.
        parity_depth: (min, max) history depth of parity branches.
        history_fn_depth: (min, max) history depth of random-function
            branches.
        correlated_noise: probability of inverting a correlated branch's
            deterministic outcome (models data-dependent perturbation).
        insts_per_branch: (min, max) instructions per branch record.
    """

    name: str
    seed: int
    n_static: int = 600
    n_routines: int = 60
    routine_len: tuple[int, int] = (4, 16)
    routine_zipf_s: float = 0.9
    routine_repeat: tuple[int, int] = (2, 12)
    transition_locality: float = 0.85
    mix: KernelMix = field(default_factory=KernelMix)
    strong_bias: tuple[float, float] = (0.96, 0.999)
    noisy_bias: tuple[float, float] = (0.60, 0.85)
    loop_trips: tuple[int, int] = (2, 32)
    pattern_len: tuple[int, int] = (2, 8)
    parity_depth: tuple[int, int] = (3, 10)
    history_fn_depth: tuple[int, int] = (4, 9)
    correlated_noise: float = 0.01
    insts_per_branch: tuple[int, int] = (3, 10)

    def __post_init__(self) -> None:
        if self.n_static <= 0:
            raise ValueError(f"n_static must be positive, got {self.n_static}")
        if self.n_routines <= 0:
            raise ValueError(f"n_routines must be positive, got {self.n_routines}")
        if not 0.0 <= self.transition_locality <= 1.0:
            raise ValueError(
                f"transition_locality must be in [0, 1], got {self.transition_locality}"
            )
        for label, lo_hi in (
            ("routine_len", self.routine_len),
            ("routine_repeat", self.routine_repeat),
            ("loop_trips", self.loop_trips),
            ("pattern_len", self.pattern_len),
            ("parity_depth", self.parity_depth),
            ("history_fn_depth", self.history_fn_depth),
            ("insts_per_branch", self.insts_per_branch),
        ):
            lo, hi = lo_hi
            if lo < 1 or hi < lo:
                raise ValueError(f"{label} must satisfy 1 <= min <= max, got {lo_hi}")
        if not 0.0 <= self.correlated_noise <= 1.0:
            raise ValueError(f"correlated_noise must be in [0, 1], got {self.correlated_noise}")


def _category_cdf(mix: KernelMix) -> tuple[list[str], list[float]]:
    """The category names and the cumulative weights a static branch's
    category draw is bisected into."""
    categories = mix.as_items()
    total_weight = sum(weight for _, weight in categories)
    cdf: list[float] = []
    acc = 0.0
    for _, weight in categories:
        acc += weight / total_weight
        cdf.append(acc)
    return [name for name, _ in categories], cdf


def _zipf_cdf(n_routines: int, exponent: float) -> list[float]:
    """The routine-popularity CDF: routine ``rank`` weighs
    ``1 / (rank + 1) ** exponent``."""
    weights = [1.0 / (rank + 1.0) ** exponent for rank in range(n_routines)]
    total = sum(weights)
    cdf: list[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    return cdf


# The construction and walk below have a C twin, the ``trace-synth``
# group of :mod:`repro.sim.fast.compiled`, which :func:`synthesize`
# runs.  Both take the category and routine CDFs from the helpers above
# (``sum`` of floats rounds differently across CPython versions).
# repro: parity-begin trace-synth/pure fingerprint=2c72842c

#: SplitMix64 draws each category's kernel takes from the construction
#: stream: the kernel seed, then its parameters (see :func:`_make_kernel`).
#: ``nested_loop`` also takes one trip count per phase, see
#: :func:`_kernel_draws`.
_KERNEL_DRAWS = {
    "biased_strong": 3,
    "biased_noisy": 3,
    "loop": 2,
    "pattern": 2,
    "parity": 2,
    "history_fn": 2,
    "local_pattern": 2,
    "nested_loop": 2,
}
#: Draws fetched at a time (:func:`~repro.common.rng.splitmix64_draws`
#: computes up to 1024 per pass).
_DRAW_CHUNK = 1024
#: The most draws one static branch takes: a PC gap, a region-jump test
#: and its jump, the category, and a nested loop's 2 + 4 phases.
_MAX_BRANCH_DRAWS = 4 + 6


def _kernel_draws(category: str, second_draw: int) -> int:
    """Draws :func:`_make_kernel` takes for ``category``, given the
    second draw of its stream (a nested loop's phase count)."""
    draws = _KERNEL_DRAWS[category]
    if category == "nested_loop":
        draws += 2 + second_draw % 3
    return draws


def _make_kernel(
    spec: WorkloadSpec, category: str, rng: SplitMix64, index: int
) -> BranchKernel:
    seed = rng.next_u64() ^ (index * 0x9E3779B9)
    if category == "biased_strong":
        lo, hi = spec.strong_bias
        magnitude = lo + (hi - lo) * rng.next_float()
        taken_side = rng.next_float() < 0.5
        p_taken = magnitude if taken_side else 1.0 - magnitude
        return BiasedKernel(p_taken=p_taken, seed=seed)
    if category == "biased_noisy":
        lo, hi = spec.noisy_bias
        p_taken = lo + (hi - lo) * rng.next_float()
        if rng.next_float() < 0.5:
            p_taken = 1.0 - p_taken
        return BiasedKernel(p_taken=p_taken, seed=seed)
    if category == "loop":
        lo, hi = spec.loop_trips
        return LoopKernel(trip_count=lo + rng.next_below(hi - lo + 1))
    if category == "pattern":
        lo, hi = spec.pattern_len
        length = lo + rng.next_below(hi - lo + 1)
        pattern_rng = SplitMix64(seed)
        pattern = [bool(pattern_rng.next_u64() & 1) for _ in range(length)]
        if not any(pattern):
            pattern[0] = True
        return PatternKernel(pattern)
    if category == "parity":
        lo, hi = spec.parity_depth
        depth = lo + rng.next_below(hi - lo + 1)
        return HistoryParityKernel(depth=depth, noise=spec.correlated_noise, seed=seed)
    if category == "history_fn":
        lo, hi = spec.history_fn_depth
        depth = lo + rng.next_below(hi - lo + 1)
        return HistoryFunctionKernel(depth=depth, noise=spec.correlated_noise, seed=seed)
    if category == "local_pattern":
        lo, hi = spec.pattern_len
        length = max(2, lo + rng.next_below(hi - lo + 1))
        return LocalPatternKernel(length=length, seed=seed)
    if category == "nested_loop":
        lo, hi = spec.loop_trips
        n_phases = 2 + rng.next_below(3)
        trips = [lo + rng.next_below(hi - lo + 1) for _ in range(n_phases)]
        return NestedLoopKernel(trips)
    raise ValueError(f"unknown kernel category {category!r}")


class StaticBranch:
    """One static branch: an address, its behaviour category and kernel.

    A synthesized branch is built without its kernel: ``build`` holds
    ``(spec, counter, index)``, the construction stream's SplitMix64
    counter where the kernel's draws start.  :attr:`kernel` builds it on
    first access, identical to an eager build.
    """

    __slots__ = ("pc", "category", "_kernel", "_build")

    def __init__(
        self,
        pc: int,
        kernel: BranchKernel | None,
        category: str,
        build: tuple[WorkloadSpec, int, int] | None = None,
    ) -> None:
        if (kernel is None) == (build is None):
            raise ValueError("a static branch takes exactly one of kernel and build")
        self.pc = pc
        self.category = category
        self._kernel = kernel
        self._build = build

    @property
    def kernel(self) -> BranchKernel:
        """The behaviour kernel, built on first access."""
        kernel = self._kernel
        if kernel is None:
            spec, counter, index = self._build
            kernel = self._kernel = _make_kernel(
                spec, self.category, SplitMix64(counter), index
            )
            self._build = None
        return kernel

    @property
    def kernel_built(self) -> bool:
        """Whether :attr:`kernel` has been built (the branch executed)."""
        return self._kernel is not None

    def __repr__(self) -> str:
        return f"StaticBranch(pc={self.pc:#x}, category={self.category!r})"


class SyntheticWorkload:
    """Executable synthetic program built from a :class:`WorkloadSpec`.

    >>> spec = WorkloadSpec(name="demo", seed=7, n_static=50, n_routines=8)
    >>> trace = SyntheticWorkload(spec).generate(1000)
    >>> len(trace)
    1000
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        # The three construction streams are forks of SplitMix64(seed):
        # fork k is seeded with the root's draw k.
        fork_seeds = splitmix64_draws(spec.seed, 3)
        self.branches = self._build_static_branches(fork_seeds[0])
        self.routines = self._build_routines(SplitMix64(fork_seeds[1]))
        self._routine_cdf = _zipf_cdf(len(self.routines), spec.routine_zipf_s)
        self._successors = self._build_transition_graph(fork_seeds[2])
        # Per static branch: ``(run, pc, is_loop)``, where ``run`` is the
        # kernel's ``burst`` for a loop branch and its ``next_outcome``
        # otherwise; filled in when the branch first executes and kept
        # across generate calls.
        self._steps: list = [None] * len(self.branches)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_static_branches(self, seed: int) -> list[StaticBranch]:
        spec = self.spec
        names, cdf = _category_cdf(spec.mix)
        last_slot = len(names) - 1

        # The stream SplitMix64(seed): draws[j] is its draw j + 1, so the
        # generator state after draws[:j] is seed + j·γ.
        draws = splitmix64_draws(seed, _DRAW_CHUNK)
        branches: list[StaticBranch] = []
        pc = 0x0040_0000 + draws[0] % 0x400 * 4
        j = 1
        for index in range(spec.n_static):
            if j + _MAX_BRANCH_DRAWS > len(draws):
                draws += splitmix64_draws(seed + len(draws) * _GAMMA, _DRAW_CHUNK)
            # Spread PCs like compiled code: mostly small gaps, occasional
            # jumps to a new "function" region.  Branch PCs stay 4-aligned.
            pc += 4 + 4 * (draws[j] % 12)
            if (draws[j + 1] >> 11) / _TWO53 < 0.05:
                j += 1
                pc += 0x400 + draws[j + 1] % 0x1000 * 4
            slot = bisect.bisect_left(cdf, (draws[j + 2] >> 11) / _TWO53)
            j += 3
            category = names[min(slot, last_slot)]
            # The kernel's draws start at draws[j]: skip them, and build
            # the kernel from state seed + j·γ on first execution.
            branches.append(
                StaticBranch(pc, None, category, (spec, (seed + j * _GAMMA) & _MASK64, index))
            )
            j += _kernel_draws(category, draws[j + 1])
        return branches

    def _build_routines(self, rng: SplitMix64) -> list[list[int]]:
        """Group static branches into routines.

        Loop-kernel branches get dedicated routines (an inner loop *is* a
        routine), optionally with a guard branch in front — otherwise
        their variable-length bursts would sit inside straight-line
        bodies and randomize the history offsets every other branch in
        the body depends on.  Non-loop branches form contiguous
        fixed-sequence bodies (spatial locality like compiled code).
        """
        spec = self.spec
        lo, hi = spec.routine_len
        loop_indices = [
            i for i, branch in enumerate(self.branches)
            if branch.category in _LOOP_CATEGORIES
        ]
        straight_indices = [
            i for i, branch in enumerate(self.branches)
            if branch.category not in _LOOP_CATEGORIES
        ]
        routines: list[list[int]] = []
        # Straight-line bodies: contiguous, fixed sequences.
        cursor = 0
        while cursor < len(straight_indices):
            length = lo + rng.next_below(hi - lo + 1)
            routines.append(straight_indices[cursor:cursor + length])
            cursor += length
        # Loop routines: the loop branch, preceded by a guard branch from
        # the straight-line population when available.
        for loop_index in loop_indices:
            body = [loop_index]
            if straight_indices and rng.next_float() < 0.5:
                body.insert(0, straight_indices[rng.next_below(len(straight_indices))])
            routines.append(body)
        # Extra shared-code routines if the spec asks for more.
        while len(routines) < spec.n_routines:
            length = lo + rng.next_below(hi - lo + 1)
            if not straight_indices:
                break
            start = rng.next_below(len(straight_indices))
            routines.append(
                [straight_indices[(start + i) % len(straight_indices)] for i in range(length)]
            )
        return routines

    def _build_transition_graph(self, seed: int) -> list[list[int]]:
        """Per-routine successor sets (sparse call-graph locality)."""
        draw = splitmix64_stream(seed).__next__
        n = len(self.routines)
        successors: list[list[int]] = []
        for _ in range(n):
            fanout = 2 + draw() % 3
            successors.append([draw() % n for _ in range(fanout)])
        return successors

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def generate(self, n_branches: int) -> Trace:
        """Execute the workload for ``n_branches`` dynamic branches.

        Control flow is program-like:

        * the workload walks a routine transition graph;
        * each routine visit executes the routine body
          ``routine_repeat``-many consecutive times (an inner loop), so
          the global-history context of every branch in the body recurs;
        * a branch backed by a loop kernel executes its entire iteration
          burst in place (taken back-edges then the not-taken exit),
          exactly like a real inner loop.

        Every call restarts the walk from the spec's seed; the kernels
        carry their state over, so a second call continues each branch's
        behaviour (:meth:`reset` rewinds them).
        """
        if n_branches < 0:
            raise ValueError(f"n_branches must be non-negative, got {n_branches}")
        spec = self.spec
        # The walk's stream, SplitMix64(seed ^ 0xC0FFEE): routine picks
        # and instruction counts, in order.
        walk = splitmix64_stream(spec.seed ^ 0xC0FFEE)
        draw = walk.__next__
        ghist = 0
        ghist_mask = mask(_GLOBAL_HISTORY_BITS)
        inst_lo, inst_hi = spec.insts_per_branch
        inst_span = inst_hi - inst_lo + 1
        repeat_lo, repeat_hi = spec.routine_repeat
        repeat_span = repeat_hi - repeat_lo + 1
        locality = spec.transition_locality

        pcs: list[int] = []
        takens = bytearray()
        insts: list[int] = []
        branches = self.branches
        routines = self.routines
        routine_cdf = self._routine_cdf
        last_routine = len(routines) - 1
        successors = self._successors
        steps = self._steps

        emitted = 0
        current: int | None = None
        while emitted < n_branches:
            # Next routine: mostly a successor of the current one
            # (call-graph locality), otherwise a global popularity draw.
            # The first pick makes no locality draw.
            if current is not None and (draw() >> 11) / _TWO53 < locality:
                nexts = successors[current]
                current = nexts[draw() % len(nexts)]
            else:
                slot = bisect.bisect_left(routine_cdf, (draw() >> 11) / _TWO53)
                current = min(slot, last_routine)
            repeats = repeat_lo + draw() % repeat_span
            visit_start = emitted
            body = routines[current]
            for _ in range(repeats):
                if emitted >= n_branches:
                    break
                for branch_index in body:
                    if emitted >= n_branches:
                        break
                    step = steps[branch_index]
                    if step is None:
                        branch = branches[branch_index]
                        is_loop = branch.category in _LOOP_CATEGORIES
                        kernel = branch.kernel
                        step = steps[branch_index] = (
                            kernel.burst if is_loop else kernel.next_outcome,
                            branch.pc,
                            is_loop,
                        )
                    run, pc, is_loop = step
                    if is_loop:
                        # A loop branch runs its whole iteration burst in
                        # place: taken back-edges, then the not-taken exit.
                        taken, exited = run(n_branches - emitted)
                        count = taken + exited
                        ghist = ((ghist << count) | ((1 << taken) - 1) << exited) & ghist_mask
                        pcs += [pc] * count
                        takens += b"\x01" * taken
                        if exited:
                            takens.append(0)
                        emitted += count
                    else:
                        taken = run(ghist)
                        ghist = ((ghist << 1) | taken) & ghist_mask
                        pcs.append(pc)
                        takens.append(taken)
                        emitted += 1
            # One instruction-count draw per branch, in emission order.
            insts += [inst_lo + d % inst_span for d in islice(walk, emitted - visit_start)]
        return Trace(spec.name, pcs, takens, insts)
    # repro: parity-end trace-synth/pure

    def reset(self) -> None:
        """Reset every kernel so the workload can be replayed from scratch.

        A kernel not yet built is already in its initial state.
        """
        for branch in self.branches:
            if branch.kernel_built:
                branch.kernel.reset()

    def category_histogram(self) -> dict[str, int]:
        """Static branch count per behaviour category (for diagnostics)."""
        histogram: dict[str, int] = {}
        for branch in self.branches:
            histogram[branch.category] = histogram.get(branch.category, 0) + 1
        return histogram


def synthesize(spec: WorkloadSpec, n_branches: int) -> Trace:
    """``SyntheticWorkload(spec).generate(n_branches)`` on a fresh workload.

    When the C build resolves (:mod:`repro.sim.fast.compiled`, policy
    ``REPRO_COMPILED_PROVIDER``), its ``trace-synth`` twin builds every
    static branch, routine and kernel and walks them in one call, with
    the same bytes.  The pure workload runs otherwise, and for a spec
    the twin does not take: an integer parameter of 2**31 or more, a
    pattern longer than 64 outcomes, or a bias range outside [0, 1]
    (which the pure kernels refuse when such a branch executes).  The
    resumable object API (a second ``generate``,
    :meth:`SyntheticWorkload.reset`, lazily built kernels) exists only on
    the pure objects.
    """
    if n_branches < 0:
        raise ValueError(f"n_branches must be non-negative, got {n_branches}")
    from repro.sim.fast.compiled import resolve_trace_synth_kernel

    # The twin's int64 row: n_static, n_routines, then every range's
    # (min, max) pair.
    iparams = [spec.n_static, spec.n_routines]
    for lo_hi in (
        spec.routine_len, spec.routine_repeat, spec.loop_trips, spec.pattern_len,
        spec.parity_depth, spec.history_fn_depth, spec.insts_per_branch,
    ):
        iparams += lo_hi
    twin = resolve_trace_synth_kernel()
    if (
        twin is None
        or max(iparams) >= 2**31
        or spec.pattern_len[1] > 64
        or not all(0.0 <= p <= 1.0 for p in (*spec.strong_bias, *spec.noisy_bias))
    ):
        return SyntheticWorkload(spec).generate(n_branches)
    fparams = array("d", [
        spec.transition_locality, spec.correlated_noise,
        *spec.strong_bias, *spec.noisy_bias, *_category_cdf(spec.mix)[1],
    ])
    pcs, takens, insts = twin(
        spec.seed & _MASK64, array("q", iparams), fparams,
        lambda n_routines: _zipf_cdf(n_routines, spec.routine_zipf_s),
        n_branches,
    )
    if spec.insts_per_branch[1] <= 0xFF:
        # Every count fits a byte: keep each int64's low byte, one
        # strided copy instead of a Python int per branch.
        insts = memoryview(insts).cast("B")[_LOW_BYTE::8].tobytes()
    return Trace(spec.name, pcs, takens, insts)
