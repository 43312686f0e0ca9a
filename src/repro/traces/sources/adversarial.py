"""Adversarial trace generators: estimator-breaking branch streams.

Each source deterministically targets one estimator family's blind spot:

* :class:`ConfidenceInversionSource` (JRS/EJRS) — every static branch
  holds its direction for a *period* of executions, then flips.  A
  resetting-counter estimator with threshold ``T`` reaches high
  confidence only after ``T`` consecutive correct predictions; with the
  period tuned just past the re-learn + build-up time, the first (often
  only) high-confidence prediction of each period lands exactly on the
  flip — high confidence becomes *anti-correlated* with correctness.
  The period is not guessed: :func:`_searched_period` simulates a small
  probe stream for every candidate against gshare + JRS and picks the
  period with the worst high-confidence precision (PVP), a
  deterministic search.
* :class:`TagAliasingStormSource` (TAGE) — many static branches whose
  PCs differ only above the table index width, each with a short
  conflicting alternation pattern: tagged entries are allocated,
  stolen and mispredict continuously (allocation churn + tag aliasing).
* :class:`LinearlyInseparableSource` (perceptron) — outcomes are the
  XOR of two global-history bits, the textbook linearly-inseparable
  function a single perceptron layer cannot represent; noise branches
  keep the history ergodic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro.common.rng import splitmix64_stream
from repro.traces.sources.base import TraceSource
from repro.traces.types import BranchRecord, Trace

__all__ = [
    "ConfidenceInversionSource",
    "TagAliasingStormSource",
    "LinearlyInseparableSource",
]


@dataclass(frozen=True)
class ConfidenceInversionSource(TraceSource):
    """Periodic direction flips tuned (by search) to invert JRS confidence.

    ``n_static`` branches execute round-robin; branch ``i`` flips its
    direction every ``period`` of its own executions, phase-staggered so
    flips spread evenly through the stream.  ``n_static`` exceeds the
    JRS/gshare history length, so a branch's own flip does not disturb
    its next index context — the estimator walks confidently into every
    flip.
    """

    label: str
    seed: int
    n_static: int = 32
    candidate_periods: tuple[int, ...] = (17, 18, 19, 20, 22, 26, 34, 50)
    probe_branches: int = 2_048
    insts_per_branch: tuple[int, int] = (3, 8)
    pc_base: int = 0x0042_0000

    def __post_init__(self) -> None:
        if self.n_static < 1:
            raise ValueError(f"n_static must be >= 1, got {self.n_static}")
        if not self.candidate_periods:
            raise ValueError("candidate_periods must be non-empty")
        if any(p < 2 for p in self.candidate_periods):
            raise ValueError(
                f"candidate periods must be >= 2, got {self.candidate_periods}"
            )
        if self.probe_branches < 64:
            raise ValueError(
                f"probe_branches must be >= 64, got {self.probe_branches}"
            )

    @property
    def name(self) -> str:
        return self.label

    def spec_dict(self) -> dict:
        return {
            "kind": "confidence-inversion", "label": self.label,
            "seed": self.seed, "n_static": self.n_static,
            "candidate_periods": list(self.candidate_periods),
            "probe_branches": self.probe_branches,
            "insts_per_branch": list(self.insts_per_branch),
            "pc_base": self.pc_base,
        }

    @property
    def period(self) -> int:
        """The searched flip period (memoized per source)."""
        return _searched_period(self)

    def _stream(self, period: int, n_branches: int) -> Iterator[BranchRecord]:
        draw = splitmix64_stream(self.seed).__next__
        pcs = []
        bases = []
        phases = []
        pc = self.pc_base
        for index in range(self.n_static):
            pc += 4 + 4 * (draw() % 8)
            pcs.append(pc)
            bases.append(bool(draw() & 1))
            # Stagger flips evenly through the round-robin schedule.
            phases.append((index * period) // max(1, self.n_static))
        execs = [0] * self.n_static
        inst_lo, inst_hi = self.insts_per_branch
        inst_span = inst_hi - inst_lo + 1
        for emitted in range(n_branches):
            i = emitted % self.n_static
            flips = (execs[i] + phases[i]) // period
            taken = bases[i] ^ bool(flips & 1)
            execs[i] += 1
            yield BranchRecord(pcs[i], taken, inst_lo + draw() % inst_span)

    def records(self, n_branches: int) -> Iterator[BranchRecord]:
        return self._stream(self.period, n_branches)


def _probe_pvp(source: ConfidenceInversionSource, period: int,
               backend: str) -> float:
    """gshare + JRS high-confidence precision on ``source``'s probe
    stream flipping every ``period`` executions (inf: no high-confidence
    assessment)."""
    from repro.confidence.jrs import JrsEstimator
    from repro.predictors.gshare import GsharePredictor
    from repro.sim.engine import simulate_binary

    trace = Trace.from_records(
        f"{source.label}/probe-p{period}",
        source._stream(period, source.probe_branches),
    )
    confusion, _ = simulate_binary(
        trace,
        GsharePredictor(),
        JrsEstimator(),
        warmup_branches=source.probe_branches // 4,
        backend=backend,
    )
    high = confusion.high_correct + confusion.high_incorrect
    return confusion.high_correct / high if high else float("inf")


def _probe_backend() -> str:
    """The engine the search runs on: the fast backend when it takes a
    gshare + JRS binary cell (the two engines give identical
    confusions), else the reference engine, without a fallback warning
    on an install that lacks NumPy."""
    from repro.confidence.jrs import JrsEstimator
    from repro.predictors.gshare import GsharePredictor
    from repro.sim.backends import Cell, get_backend

    cell = Cell(GsharePredictor(), JrsEstimator(), binary=True)
    return "fast" if get_backend("fast").capability(cell) else "reference"


@lru_cache(maxsize=32)
def _searched_period(source: ConfidenceInversionSource) -> int:
    """Deterministic search: the candidate period with the worst
    gshare + JRS high-confidence precision on a probe stream (the
    first such candidate on a tie)."""
    backend = _probe_backend()
    best_period = source.candidate_periods[0]
    best_pvp = float("inf")
    for period in source.candidate_periods:
        pvp = _probe_pvp(source, period, backend)
        if pvp < best_pvp:
            best_pvp = pvp
            best_period = period
    return best_period


@dataclass(frozen=True)
class TagAliasingStormSource(TraceSource):
    """PC-aliased conflicting patterns: a tagged-table allocation storm.

    ``n_aliases`` branches whose PCs differ only at bit ``log_stride+2``
    and above execute round-robin, so they collide in any table indexed
    by fewer than ``log_stride`` PC bits.  Each branch alternates
    direction with its own short period and phase, so colliding entries
    are trained in conflicting directions and tagged components churn
    allocations instead of converging.
    """

    label: str
    seed: int
    n_aliases: int = 96
    log_stride: int = 14
    alternation_periods: tuple[int, ...] = (1, 2, 3)
    insts_per_branch: tuple[int, int] = (3, 8)
    pc_base: int = 0x0044_0000

    def __post_init__(self) -> None:
        if self.n_aliases < 1:
            raise ValueError(f"n_aliases must be >= 1, got {self.n_aliases}")
        if not 2 <= self.log_stride <= 40:
            raise ValueError(f"log_stride must be in [2, 40], got {self.log_stride}")
        if not self.alternation_periods or any(
            p < 1 for p in self.alternation_periods
        ):
            raise ValueError(
                f"alternation periods must be >= 1, got {self.alternation_periods}"
            )

    @property
    def name(self) -> str:
        return self.label

    def spec_dict(self) -> dict:
        return {
            "kind": "tag-aliasing-storm", "label": self.label, "seed": self.seed,
            "n_aliases": self.n_aliases, "log_stride": self.log_stride,
            "alternation_periods": list(self.alternation_periods),
            "insts_per_branch": list(self.insts_per_branch),
            "pc_base": self.pc_base,
        }

    def records(self, n_branches: int) -> Iterator[BranchRecord]:
        draw = splitmix64_stream(self.seed).__next__
        stride = 1 << (self.log_stride + 2)
        branches = []
        for index in range(self.n_aliases):
            branches.append({
                "pc": self.pc_base + index * stride,
                "period": self.alternation_periods[
                    draw() % len(self.alternation_periods)
                ],
                "phase": draw() % 64,
                "execs": 0,
            })
        inst_lo, inst_hi = self.insts_per_branch
        inst_span = inst_hi - inst_lo + 1
        for emitted in range(n_branches):
            branch = branches[emitted % self.n_aliases]
            taken = bool(
                ((branch["execs"] + branch["phase"]) // branch["period"]) & 1
            )
            branch["execs"] += 1
            yield BranchRecord(branch["pc"], taken, inst_lo + draw() % inst_span)


@dataclass(frozen=True)
class LinearlyInseparableSource(TraceSource):
    """XOR-of-history outcomes: the perceptron's blind spot.

    Each XOR branch resolves as the exclusive-or of two fixed global
    history positions — a function with zero linear correlation to any
    single history bit, so a perceptron (a linear separator over history
    bits) cannot learn it while table-based predictors can.  Interleaved
    noise branches keep the history stream ergodic (an all-XOR stream
    can collapse to a fixed point).
    """

    label: str
    seed: int
    n_xor: int = 8
    n_noise: int = 1
    tap_range: tuple[int, int] = (2, 6)
    insts_per_branch: tuple[int, int] = (3, 8)
    pc_base: int = 0x0046_0000

    def __post_init__(self) -> None:
        if self.n_xor < 1:
            raise ValueError(f"n_xor must be >= 1, got {self.n_xor}")
        if self.n_noise < 1:
            raise ValueError(f"n_noise must be >= 1, got {self.n_noise}")
        lo, hi = self.tap_range
        if lo < 1 or hi <= lo:
            raise ValueError(f"tap_range must satisfy 1 <= min < max, got {self.tap_range}")

    @property
    def name(self) -> str:
        return self.label

    def spec_dict(self) -> dict:
        return {
            "kind": "linearly-inseparable", "label": self.label, "seed": self.seed,
            "n_xor": self.n_xor, "n_noise": self.n_noise,
            "tap_range": list(self.tap_range),
            "insts_per_branch": list(self.insts_per_branch),
            "pc_base": self.pc_base,
        }

    def records(self, n_branches: int) -> Iterator[BranchRecord]:
        draw = splitmix64_stream(self.seed).__next__
        lo, hi = self.tap_range
        branches = []
        pc = self.pc_base
        for _ in range(self.n_xor):
            pc += 4 + 4 * (draw() % 8)
            tap_a = lo + draw() % (hi - lo + 1)
            tap_b = lo + draw() % (hi - lo + 1)
            if tap_b == tap_a:
                tap_b = tap_a + 1
            branches.append(("xor", pc, tap_a, tap_b))
        for _ in range(self.n_noise):
            pc += 4 + 4 * (draw() % 8)
            branches.append(("noise", pc, 0, 0))
        # Deterministic shuffle so noise interleaves with XOR branches.
        order = list(range(len(branches)))
        for i in range(len(order) - 1, 0, -1):
            j = draw() % (i + 1)
            order[i], order[j] = order[j], order[i]
        schedule = [branches[i] for i in order]
        inst_lo, inst_hi = self.insts_per_branch
        inst_span = inst_hi - inst_lo + 1
        history = 0
        for emitted in range(n_branches):
            kind, branch_pc, tap_a, tap_b = schedule[emitted % len(schedule)]
            if kind == "xor":
                taken = bool(((history >> tap_a) ^ (history >> tap_b)) & 1)
            else:
                taken = bool(draw() & 1)
            history = ((history << 1) | int(taken)) & 0xFFFF_FFFF
            yield BranchRecord(branch_pc, taken, inst_lo + draw() % inst_span)
