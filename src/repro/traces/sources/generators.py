"""Parameterized trace generators.

Four source families beyond the built-in CBP-style workloads:

* :class:`MarkovChainSource` — every static branch is an independent
  two-state Markov chain over its own direction (stay/flip
  probabilities drawn per branch), the classic analytic branch-process
  model;
* :class:`LoopNestSource` — a mix of two-level loop nests with varied
  trip counts (back-edge bursts, exits, guard branches), the structure
  loop predictors and medium TAGE histories feed on;
* :class:`PhaseChangeSource` — composes
  :class:`~repro.traces.workload.WorkloadSpec` segments into a
  phase-alternating program; each phase *resumes* its workload's kernel
  state, so phases genuinely return rather than restart;
* :class:`InterferenceSource` — context-switch interleaving of two
  sub-sources in jittered quanta, with both PC spaces remapped into one
  shared window so the streams collide in predictor tables the way two
  processes sharing a core do.

All sources are frozen dataclasses seeded through
:class:`~repro.common.rng.SplitMix64`: equal spec, equal stream, in any
process.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from repro.common.bitops import mask
from repro.common.rng import SPLITMIX64_FLOAT_DIVISOR as _TWO53
from repro.common.rng import SplitMix64, splitmix64_stream
from repro.traces.sources.base import TraceSource
from repro.traces.types import BranchRecord, Trace
from repro.traces.workload import SyntheticWorkload, WorkloadSpec

__all__ = [
    "MarkovChainSource",
    "LoopNestSource",
    "PhaseChangeSource",
    "InterferenceSource",
]


def _draw(rng: SplitMix64, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.next_float()


def _draw_int(rng: SplitMix64, lo: int, hi: int) -> int:
    return lo + rng.next_below(hi - lo + 1)


def _check_range(label: str, lo_hi: tuple, minimum) -> None:
    lo, hi = lo_hi
    if lo < minimum or hi < lo:
        raise ValueError(f"{label} must satisfy {minimum} <= min <= max, got {lo_hi}")


@dataclass(frozen=True)
class MarkovChainSource(TraceSource):
    """Independent two-state Markov chains, one per static branch.

    Branch ``i`` keeps a direction state; on each execution it *stays*
    with its per-branch stay probability (drawn from ``stay_taken`` /
    ``stay_not_taken`` per state) and flips otherwise.  High stay
    probabilities give long runs (bimodal heaven); values near 0.5
    approach a coin.
    """

    label: str
    seed: int
    n_static: int = 64
    stay_taken: tuple[float, float] = (0.85, 0.99)
    stay_not_taken: tuple[float, float] = (0.80, 0.98)
    insts_per_branch: tuple[int, int] = (3, 9)
    pc_base: int = 0x0040_0000

    def __post_init__(self) -> None:
        if self.n_static < 1:
            raise ValueError(f"n_static must be >= 1, got {self.n_static}")
        for label, lo_hi in (("stay_taken", self.stay_taken),
                             ("stay_not_taken", self.stay_not_taken)):
            lo, hi = lo_hi
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(f"{label} must satisfy 0 <= min <= max <= 1, got {lo_hi}")
        _check_range("insts_per_branch", self.insts_per_branch, 1)

    @property
    def name(self) -> str:
        return self.label

    def spec_dict(self) -> dict:
        return {
            "kind": "markov", "label": self.label, "seed": self.seed,
            "n_static": self.n_static, "stay_taken": list(self.stay_taken),
            "stay_not_taken": list(self.stay_not_taken),
            "insts_per_branch": list(self.insts_per_branch),
            "pc_base": self.pc_base,
        }

    def records(self, n_branches: int) -> Iterator[BranchRecord]:
        rng = SplitMix64(self.seed)
        branches = []
        pc = self.pc_base
        for _ in range(self.n_static):
            pc += 4 + 4 * rng.next_below(8)
            branches.append({
                "pc": pc,
                "stay_t": _draw(rng, *self.stay_taken),
                "stay_n": _draw(rng, *self.stay_not_taken),
                "state": bool(rng.next_u64() & 1),
            })
        # The walk forks the set-up stream: SplitMix64(rng.next_u64()).
        walk = splitmix64_stream(rng.next_u64()).__next__
        inst_lo, inst_hi = self.insts_per_branch
        inst_span = inst_hi - inst_lo + 1
        for _ in range(n_branches):
            branch = branches[walk() % self.n_static]
            stay = branch["stay_t"] if branch["state"] else branch["stay_n"]
            if (walk() >> 11) / _TWO53 >= stay:
                branch["state"] = not branch["state"]
            yield BranchRecord(branch["pc"], branch["state"], inst_lo + walk() % inst_span)


@dataclass(frozen=True)
class LoopNestSource(TraceSource):
    """Two-level loop nests with per-nest trip counts.

    Each nest contributes an inner back-edge (taken ``inner - 1`` times
    then not taken), an outer back-edge, and a biased guard branch in
    the loop body; execution cycles through the nests.  Predictors with
    enough history resolve every exit; bimodal mispredicts one branch
    per inner iteration burst.
    """

    label: str
    seed: int
    n_nests: int = 10
    outer_trips: tuple[int, int] = (2, 6)
    inner_trips: tuple[int, int] = (2, 15)
    insts_per_branch: tuple[int, int] = (4, 10)
    pc_base: int = 0x0041_0000

    def __post_init__(self) -> None:
        if self.n_nests < 1:
            raise ValueError(f"n_nests must be >= 1, got {self.n_nests}")
        _check_range("outer_trips", self.outer_trips, 1)
        _check_range("inner_trips", self.inner_trips, 1)
        _check_range("insts_per_branch", self.insts_per_branch, 1)

    @property
    def name(self) -> str:
        return self.label

    def spec_dict(self) -> dict:
        return {
            "kind": "loop-nest", "label": self.label, "seed": self.seed,
            "n_nests": self.n_nests, "outer_trips": list(self.outer_trips),
            "inner_trips": list(self.inner_trips),
            "insts_per_branch": list(self.insts_per_branch),
            "pc_base": self.pc_base,
        }

    def _stream(self) -> Iterator[BranchRecord]:
        rng = SplitMix64(self.seed)
        nests = []
        pc = self.pc_base
        for _ in range(self.n_nests):
            pc += 0x40 + 4 * rng.next_below(16)
            nests.append({
                "guard_pc": pc, "inner_pc": pc + 8, "outer_pc": pc + 16,
                "outer": _draw_int(rng, *self.outer_trips),
                "inner": _draw_int(rng, *self.inner_trips),
                "guard_taken": bool(rng.next_u64() & 1),
            })
        # The walk forks the set-up stream: SplitMix64(rng.next_u64()).
        walk = splitmix64_stream(rng.next_u64()).__next__
        inst_lo, inst_hi = self.insts_per_branch
        inst_span = inst_hi - inst_lo + 1

        def emit(pc: int, taken: bool) -> BranchRecord:
            return BranchRecord(pc, taken, inst_lo + walk() % inst_span)

        while True:
            for nest in nests:
                for outer_it in range(nest["outer"]):
                    # Guard flips rarely — a strongly biased body branch.
                    guard = nest["guard_taken"] ^ ((walk() >> 11) / _TWO53 < 0.03)
                    yield emit(nest["guard_pc"], guard)
                    for inner_it in range(nest["inner"]):
                        yield emit(nest["inner_pc"], inner_it < nest["inner"] - 1)
                    yield emit(nest["outer_pc"], outer_it < nest["outer"] - 1)

    def records(self, n_branches: int) -> Iterator[BranchRecord]:
        return islice(self._stream(), n_branches)


@dataclass(frozen=True)
class PhaseChangeSource(TraceSource):
    """Phase-alternating composition of ``WorkloadSpec`` segments.

    The stream cycles through the segments, emitting ``phase_length``
    branches per visit.  Each segment keeps one persistent
    :class:`~repro.traces.workload.SyntheticWorkload`, so a returning
    phase *resumes* its kernels (same static branches, continued loop /
    pattern state) — the predictor sees a genuine phase change, not a
    fresh program.
    """

    label: str
    segments: tuple[WorkloadSpec, ...]
    phase_length: int = 1_200

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("segments must be non-empty")
        if self.phase_length < 1:
            raise ValueError(f"phase_length must be >= 1, got {self.phase_length}")

    @property
    def name(self) -> str:
        return self.label

    def spec_dict(self) -> dict:
        return {
            "kind": "phase-change", "label": self.label,
            "phase_length": self.phase_length,
            "segments": [
                {"name": spec.name, "seed": spec.seed, "n_static": spec.n_static,
                 "n_routines": spec.n_routines}
                for spec in self.segments
            ],
        }

    def _phases(self, n_branches: int) -> Iterator[Trace]:
        """The stream as one trace per phase visit, built lazily."""
        workloads = [SyntheticWorkload(spec) for spec in self.segments]
        emitted = 0
        phase = 0
        while emitted < n_branches:
            workload = workloads[phase % len(workloads)]
            length = min(self.phase_length, n_branches - emitted)
            yield workload.generate(length)
            emitted += length
            phase += 1

    def records(self, n_branches: int) -> Iterator[BranchRecord]:
        for piece in self._phases(n_branches):
            yield from piece.records()

    def _materialize(self, n_branches: int) -> Trace:
        return Trace.join(self.name, self._phases(n_branches))


@dataclass(frozen=True)
class InterferenceSource(TraceSource):
    """Context-switch interleaving of two sources with PC collisions.

    The stream alternates between ``primary`` and ``secondary`` in
    quanta jittered around ``quantum`` branches.  When
    ``pc_window_bits`` is set, both streams' PCs are folded into one
    shared ``2**pc_window_bits``-byte window at ``pc_window_base`` —
    forcing index/tag collisions between the two "processes" exactly
    where a shared predictor would suffer them.
    """

    label: str
    primary: TraceSource
    secondary: TraceSource
    quantum: int = 64
    pc_window_bits: int | None = 13
    pc_window_base: int = 0x0040_0000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {self.quantum}")
        if self.pc_window_bits is not None and not 4 <= self.pc_window_bits <= 48:
            raise ValueError(
                f"pc_window_bits must be in [4, 48], got {self.pc_window_bits}"
            )

    @property
    def name(self) -> str:
        return self.label

    def spec_dict(self) -> dict:
        return {
            "kind": "interference", "label": self.label, "seed": self.seed,
            "quantum": self.quantum, "pc_window_bits": self.pc_window_bits,
            "pc_window_base": self.pc_window_base,
            "primary": self.primary.spec_dict(),
            "secondary": self.secondary.spec_dict(),
        }

    def _remap(self, pc: int) -> int:
        if self.pc_window_bits is None:
            return pc
        # Fold into the shared window, keeping 4-alignment.
        return self.pc_window_base | (pc & mask(self.pc_window_bits) & ~0x3)

    def records(self, n_branches: int) -> Iterator[BranchRecord]:
        rng = SplitMix64(self.seed ^ 0x1F3E_55AA)
        streams = (
            self.primary.records(n_branches),
            self.secondary.records(n_branches),
        )
        active = 0
        emitted = 0
        dry_quanta = 0
        while emitted < n_branches:
            # Jittered quantum in [quantum/2, 3*quantum/2).
            length = max(1, self.quantum // 2 + rng.next_below(self.quantum))
            produced = 0
            for record in islice(streams[active], min(length, n_branches - emitted)):
                yield BranchRecord(
                    self._remap(record.pc), record.taken, record.inst_count
                )
                emitted += 1
                produced += 1
            # Both sub-streams exhausted (short file replay): stop early.
            dry_quanta = dry_quanta + 1 if produced == 0 else 0
            if dry_quanta >= 2:
                return
            active ^= 1
