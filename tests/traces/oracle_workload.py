"""Test-only oracle: the eager, method-call synthetic workload.

This is the :class:`repro.traces.workload.SyntheticWorkload`
construction and ``generate`` loop as they were before draws were
batched and kernels built on first execution, kept verbatim: every
static branch builds its kernel up front from a
:class:`~repro.common.rng.SplitMix64` object, and every draw is a
method call.  ``test_workload_oracle.py`` checks the production
workload against it column for column and kernel for kernel, and
``benchmarks/test_bench_synthesis.py`` times it as the baseline.
"""

from __future__ import annotations

import bisect

from repro.common.bitops import mask
from repro.common.rng import SplitMix64
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
from repro.traces.workload import StaticBranch, WorkloadSpec

_GLOBAL_HISTORY_BITS = 32


class OracleWorkload:
    """Eager reference twin of ``SyntheticWorkload``."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self._rng = SplitMix64(spec.seed)
        self.branches = self._build_static_branches()
        self.routines = self._build_routines()
        self._routine_cdf = self._build_routine_cdf()
        self._successors = self._build_transition_graph()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_static_branches(self) -> list[StaticBranch]:
        spec = self.spec
        rng = self._rng.fork()
        categories = spec.mix.as_items()
        total_weight = sum(weight for _, weight in categories)
        cdf: list[float] = []
        acc = 0.0
        for _, weight in categories:
            acc += weight / total_weight
            cdf.append(acc)

        branches: list[StaticBranch] = []
        pc = 0x0040_0000 + rng.next_below(0x400) * 4
        for index in range(spec.n_static):
            # Spread PCs like compiled code: mostly small gaps, occasional
            # jumps to a new "function" region.  Branch PCs stay 4-aligned.
            pc += 4 + 4 * rng.next_below(12)
            if rng.next_float() < 0.05:
                pc += 0x400 + rng.next_below(0x1000) * 4
            draw = rng.next_float()
            slot = bisect.bisect_left(cdf, draw)
            slot = min(slot, len(categories) - 1)
            category = categories[slot][0]
            kernel = self._make_kernel(category, rng, index)
            branches.append(StaticBranch(pc=pc, kernel=kernel, category=category))
        return branches

    def _make_kernel(self, category: str, rng: SplitMix64, index: int) -> BranchKernel:
        spec = self.spec
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

    def _build_routines(self) -> list[list[int]]:
        """Group static branches into routines.

        Loop-kernel branches get dedicated routines (an inner loop *is* a
        routine), optionally with a guard branch in front — otherwise
        their variable-length bursts would sit inside straight-line
        bodies and randomize the history offsets every other branch in
        the body depends on.  Non-loop branches form contiguous
        fixed-sequence bodies (spatial locality like compiled code).
        """
        spec = self.spec
        rng = self._rng.fork()
        lo, hi = spec.routine_len
        loop_indices = [
            i for i, branch in enumerate(self.branches)
            if branch.category in ("loop", "nested_loop")
        ]
        straight_indices = [
            i for i, branch in enumerate(self.branches)
            if branch.category not in ("loop", "nested_loop")
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

    def _build_routine_cdf(self) -> list[float]:
        spec = self.spec
        weights = [
            1.0 / (rank + 1.0) ** spec.routine_zipf_s for rank in range(len(self.routines))
        ]
        total = sum(weights)
        cdf: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cdf.append(acc)
        return cdf

    def _build_transition_graph(self) -> list[list[int]]:
        """Per-routine successor sets (sparse call-graph locality)."""
        rng = self._rng.fork()
        n = len(self.routines)
        successors: list[list[int]] = []
        for _ in range(n):
            fanout = 2 + rng.next_below(3)
            successors.append([rng.next_below(n) for _ in range(fanout)])
        return successors

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _pick_routine(self, rng: SplitMix64, current: int | None) -> int:
        """Next routine: mostly a successor of the current one (call-graph
        locality), otherwise a global popularity draw."""
        if current is not None and rng.next_float() < self.spec.transition_locality:
            successors = self._successors[current]
            return successors[rng.next_below(len(successors))]
        draw = rng.next_float()
        index = bisect.bisect_left(self._routine_cdf, draw)
        return min(index, len(self.routines) - 1)

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
        """
        if n_branches < 0:
            raise ValueError(f"n_branches must be non-negative, got {n_branches}")
        spec = self.spec
        rng = SplitMix64(spec.seed ^ 0xC0FFEE)
        ghist = 0
        ghist_mask = mask(_GLOBAL_HISTORY_BITS)
        inst_lo, inst_hi = spec.insts_per_branch
        inst_span = inst_hi - inst_lo + 1
        repeat_lo, repeat_hi = spec.routine_repeat
        repeat_span = repeat_hi - repeat_lo + 1

        pcs: list[int] = []
        takens: list[int] = []
        insts: list[int] = []
        branches = self.branches
        routines = self.routines

        emitted = 0
        current: int | None = None
        while emitted < n_branches:
            current = self._pick_routine(rng, current)
            repeats = repeat_lo + rng.next_below(repeat_span)
            for _ in range(repeats):
                if emitted >= n_branches:
                    break
                for branch_index in routines[current]:
                    if emitted >= n_branches:
                        break
                    branch = branches[branch_index]
                    is_loop = branch.category in ("loop", "nested_loop")
                    while emitted < n_branches:
                        taken = branch.kernel.next_outcome(ghist)
                        ghist = ((ghist << 1) | int(taken)) & ghist_mask
                        pcs.append(branch.pc)
                        takens.append(int(taken))
                        insts.append(inst_lo + rng.next_below(inst_span))
                        emitted += 1
                        # Loop kernels burst until the not-taken exit;
                        # every other kernel executes once per visit.
                        if not (is_loop and taken):
                            break
        return Trace(spec.name, pcs, takens, insts)

    def reset(self) -> None:
        for branch in self.branches:
            branch.kernel.reset()

    def category_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for branch in self.branches:
            histogram[branch.category] = histogram.get(branch.category, 0) + 1
        return histogram
