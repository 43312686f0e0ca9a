"""Confidence-directed fetch gating (speculation control).

The model follows Manne et al.'s pipeline-gating idea [9]: the front end
counts unresolved low-confidence branches; when the count reaches a
threshold, instruction fetch is *gated* (stalled) until branches resolve.
A graded estimator (the paper's three levels) allows a finer policy: low
and medium confidence branches can carry different weights, as suggested
by Malik et al. [8].

Pipeline abstraction (documented, deliberately simple):

* the machine fetches ``fetch_width`` instructions per cycle;
* a branch resolves ``resolution_latency`` branches after prediction
  (a branch-granular stand-in for pipeline depth);
* instructions fetched between a mispredicted branch and its resolution
  are *wasted work* (they are squashed);
* cycles in which fetch is gated but the oldest in-flight branches were
  all correct are *lost opportunity*.

The interesting trade-off is ``wasted_fetch_avoided`` (energy win)
against ``useful_fetch_lost`` (performance loss) — the SPEC/PVN
combination §2.2 says gating needs.

Execution is a two-stage *replay*: the per-branch confidence signal is
produced once by :func:`repro.sim.observe.observe_trace` (on either
simulation backend — the gating decisions never feed back into the
predictor, so the observation stream is policy-independent), and the
gating policy then replays over the recorded (level, mispredicted)
pairs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.confidence.classes import ConfidenceLevel
from repro.confidence.estimator import TageConfidenceEstimator
from repro.sim.backends import DEFAULT_BACKEND
from repro.sim.observe import ObservationStream, observe_trace

__all__ = ["GatingPolicy", "GatingStats", "FetchGatingModel"]


@dataclass(frozen=True)
class GatingPolicy:
    """Gating decision parameters.

    Attributes:
        gate_threshold: gate fetch when the confidence-weighted count of
            unresolved branches reaches this value.
        low_weight / medium_weight / high_weight: per-level weights of an
            in-flight branch (Malik-style graded gating [8]); the classic
            binary policy is ``low=1, medium=0, high=0``.
        throttle_factor: fraction of fetch bandwidth kept while gated.
            0.0 is full pipeline gating (Manne et al. [9]); a value in
            (0, 1) is *selective throttling* (Aragón et al. [2]) — reduce
            the fetch rate instead of stopping, trading less energy
            saving for less performance risk.
    """

    gate_threshold: float = 2.0
    low_weight: float = 1.0
    medium_weight: float = 0.25
    high_weight: float = 0.0
    throttle_factor: float = 0.0

    def __post_init__(self) -> None:
        if self.gate_threshold <= 0:
            raise ValueError(f"gate_threshold must be positive, got {self.gate_threshold}")
        for label, weight in (
            ("low_weight", self.low_weight),
            ("medium_weight", self.medium_weight),
            ("high_weight", self.high_weight),
        ):
            if weight < 0:
                raise ValueError(f"{label} must be non-negative, got {weight}")
        if not 0.0 <= self.throttle_factor < 1.0:
            raise ValueError(
                f"throttle_factor must be in [0, 1), got {self.throttle_factor}"
            )

    def weight(self, level: ConfidenceLevel) -> float:
        if level is ConfidenceLevel.LOW:
            return self.low_weight
        if level is ConfidenceLevel.MEDIUM:
            return self.medium_weight
        return self.high_weight


@dataclass
class GatingStats:
    """Outcome of a fetch-gating run.

    All instruction counts are in fetched instructions.
    """

    total_branches: int = 0
    mispredicted_branches: int = 0
    gated_branches: int = 0
    fetched_instructions: int = 0
    wasted_instructions: int = 0
    wasted_fetch_avoided: int = 0
    useful_fetch_lost: int = 0

    @property
    def gating_rate(self) -> float:
        """Fraction of branch slots at which fetch was gated."""
        return self.gated_branches / self.total_branches if self.total_branches else 0.0

    @property
    def waste_reduction(self) -> float:
        """Fraction of would-be wasted fetch that gating avoided."""
        baseline_waste = self.wasted_instructions + self.wasted_fetch_avoided
        return self.wasted_fetch_avoided / baseline_waste if baseline_waste else 0.0

    @property
    def useful_loss_rate(self) -> float:
        """Useful fetch lost, as a fraction of all useful fetch."""
        useful = self.fetched_instructions - self.wasted_instructions
        baseline_useful = useful + self.useful_fetch_lost
        return self.useful_fetch_lost / baseline_useful if baseline_useful else 0.0

    def summary(self) -> str:
        return (
            f"gated {self.gating_rate:.1%} of slots, "
            f"avoided {self.waste_reduction:.1%} of wasted fetch, "
            f"lost {self.useful_loss_rate:.2%} of useful fetch"
        )


class FetchGatingModel:
    """Trace-driven fetch gating around a TAGE predictor + estimator.

    Args:
        predictor: a TAGE predictor.
        estimator: its confidence observer.
        policy: gating parameters.
        fetch_width: instructions fetched per branch slot.
        resolution_latency: branches in flight before resolution.
    """

    def __init__(
        self,
        predictor,
        estimator: TageConfidenceEstimator,
        policy: GatingPolicy | None = None,
        fetch_width: int = 4,
        resolution_latency: int = 8,
    ) -> None:
        if fetch_width <= 0:
            raise ValueError(f"fetch_width must be positive, got {fetch_width}")
        if resolution_latency <= 0:
            raise ValueError(f"resolution_latency must be positive, got {resolution_latency}")
        self.predictor = predictor
        self.estimator = estimator
        self.policy = policy or GatingPolicy()
        self.fetch_width = fetch_width
        self.resolution_latency = resolution_latency

    def run(
        self,
        trace,
        backend: str = DEFAULT_BACKEND,
    ) -> GatingStats:
        """Process a trace and return gating statistics.

        ``backend`` selects the engine that produces the per-branch
        observation stream; the policy replay itself is backend-invariant.
        """
        stream = observe_trace(
            trace, self.predictor, self.estimator, backend=backend
        )
        return self.replay(stream, trace.insts)

    def replay(self, stream: ObservationStream, insts) -> GatingStats:
        """Replay the gating policy over a recorded observation stream.

        ``insts`` must be the instruction column of the trace the stream
        was recorded from (one entry per branch).
        """
        if len(insts) != len(stream):
            raise ValueError(
                f"insts column ({len(insts)} branches) does not match the "
                f"observation stream ({len(stream)} branches)"
            )
        stats = GatingStats()
        policy = self.policy
        # Each in-flight element: (weight, mispredicted, inst_count).
        in_flight: deque[tuple[float, bool, int]] = deque()
        pressure = 0.0
        # Mispredicted entries of in_flight, kept as the deque changes.
        unresolved_mispredictions = 0
        levels = stream.levels
        mispredicted_flags = stream.mispredicted

        for index, inst in enumerate(insts):
            level = levels[index]
            mispredicted = mispredicted_flags[index]

            gated = pressure >= policy.gate_threshold
            # One record covers `inst` instructions of fetch bandwidth.
            fetch_block = inst

            stats.total_branches += 1
            if mispredicted:
                stats.mispredicted_branches += 1
            behind_misprediction = unresolved_mispredictions > 0
            if gated:
                stats.gated_branches += 1
                # Throttling keeps a fraction of the bandwidth; pipeline
                # gating (throttle_factor = 0) keeps none.
                kept = int(fetch_block * policy.throttle_factor)
                suppressed = fetch_block - kept
                stats.fetched_instructions += kept
                # Suppressed fetch behind an unresolved misprediction is
                # waste we avoided; otherwise it was useful bandwidth lost.
                if behind_misprediction:
                    stats.wasted_instructions += kept
                    stats.wasted_fetch_avoided += suppressed
                else:
                    stats.useful_fetch_lost += suppressed
            else:
                stats.fetched_instructions += fetch_block
                if behind_misprediction:
                    # Fetched behind an unresolved misprediction: squashed.
                    stats.wasted_instructions += fetch_block

            weight = policy.weight(level)
            in_flight.append((weight, mispredicted, inst))
            pressure += weight
            if mispredicted:
                unresolved_mispredictions += 1
            if len(in_flight) > self.resolution_latency:
                resolved_weight, resolved_mispredicted, _ = in_flight.popleft()
                pressure -= resolved_weight
                if resolved_mispredicted:
                    unresolved_mispredictions -= 1
        return stats
