"""Confidence-directed dual/multipath execution (Klauser et al. [6]).

§2.1: "Dual or multipath execution heavily rely on the use of such a
confidence estimator."  On a low-confidence branch the machine *forks*
and fetches both paths: the misprediction penalty disappears (the
correct path is already in flight) at the cost of the duplicated fetch
bandwidth until resolution.

Model (branch-granular, like the other app models):

* a mispredicted non-forked branch costs ``mispredict_penalty`` cycles;
* a forked branch costs ``fork_overhead_per_branch * resolution_latency``
  fetch slots (the wrong path's bandwidth) but never pays the penalty;
* forks are capped by ``max_outstanding_forks`` (real designs fork on
  one or two branches at a time).

The interesting figure is net cycles saved as a function of which
confidence levels fork — forking on everything wastes bandwidth,
forking on nothing wastes penalty; a good estimator makes LOW-only
forking profitable.

Like the other apps, the model is a replay pass: fork decisions never
feed back into the predictor, so the per-branch (level, mispredicted)
stream comes from :func:`repro.sim.observe.observe_trace` on either
simulation backend and the policy replays over it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.confidence.classes import ConfidenceLevel
from repro.confidence.estimator import TageConfidenceEstimator
from repro.sim.backends import DEFAULT_BACKEND
from repro.sim.observe import ObservationStream, observe_trace

__all__ = ["MultipathPolicy", "MultipathStats", "MultipathModel"]


@dataclass(frozen=True)
class MultipathPolicy:
    """Which confidence levels fork, and the machine cost model."""

    fork_on_low: bool = True
    fork_on_medium: bool = False
    mispredict_penalty: int = 15
    fork_overhead_per_branch: int = 2
    max_outstanding_forks: int = 2

    def __post_init__(self) -> None:
        if self.mispredict_penalty <= 0:
            raise ValueError(
                f"mispredict_penalty must be positive, got {self.mispredict_penalty}"
            )
        if self.fork_overhead_per_branch < 0:
            raise ValueError(
                "fork_overhead_per_branch must be non-negative, "
                f"got {self.fork_overhead_per_branch}"
            )
        if self.max_outstanding_forks <= 0:
            raise ValueError(
                f"max_outstanding_forks must be positive, got {self.max_outstanding_forks}"
            )

    def should_fork(self, level: ConfidenceLevel) -> bool:
        if level is ConfidenceLevel.LOW:
            return self.fork_on_low
        if level is ConfidenceLevel.MEDIUM:
            return self.fork_on_medium
        return False


@dataclass
class MultipathStats:
    """Cost accounting of one multipath run (units: cycles/slots)."""

    total_branches: int = 0
    mispredictions: int = 0
    forks: int = 0
    forks_denied: int = 0
    covered_mispredictions: int = 0
    penalty_cycles: int = 0
    penalty_cycles_avoided: int = 0
    fork_overhead_cycles: int = 0

    @property
    def baseline_penalty_cycles(self) -> int:
        """Penalty the machine would pay with no multipath at all."""
        return self.penalty_cycles + self.penalty_cycles_avoided

    @property
    def net_cycles_saved(self) -> int:
        return self.penalty_cycles_avoided - self.fork_overhead_cycles

    @property
    def fork_rate(self) -> float:
        return self.forks / self.total_branches if self.total_branches else 0.0

    @property
    def useful_fork_rate(self) -> float:
        """Fraction of forks that actually covered a misprediction."""
        return self.covered_mispredictions / self.forks if self.forks else 0.0

    def summary(self) -> str:
        return (
            f"{self.forks} forks ({self.fork_rate:.1%} of branches), "
            f"avoided {self.penalty_cycles_avoided} penalty cycles, "
            f"spent {self.fork_overhead_cycles} on wrong paths, "
            f"net {self.net_cycles_saved:+d} cycles"
        )


class MultipathModel:
    """Trace-driven multipath execution around TAGE + its estimator."""

    def __init__(
        self,
        predictor,
        estimator: TageConfidenceEstimator,
        policy: MultipathPolicy | None = None,
        resolution_latency: int = 8,
    ) -> None:
        if resolution_latency <= 0:
            raise ValueError(f"resolution_latency must be positive, got {resolution_latency}")
        self.predictor = predictor
        self.estimator = estimator
        self.policy = policy or MultipathPolicy()
        self.resolution_latency = resolution_latency

    def run(
        self,
        trace,
        backend: str = DEFAULT_BACKEND,
    ) -> MultipathStats:
        """Process a trace and return multipath cost accounting.

        ``backend`` selects the engine that produces the per-branch
        observation stream; the policy replay itself is backend-invariant.
        """
        stream = observe_trace(
            trace, self.predictor, self.estimator, backend=backend
        )
        return self.replay(stream)

    def replay(self, stream: ObservationStream) -> MultipathStats:
        """Replay the fork policy over a recorded observation stream."""
        stats = MultipathStats()
        policy = self.policy
        # Outstanding forks: each entry is the branch index at which the
        # fork resolves (branch-granular latency).
        outstanding: deque[int] = deque()
        levels = stream.levels
        mispredicted_flags = stream.mispredicted

        for index in range(len(stream)):
            while outstanding and outstanding[0] <= index:
                outstanding.popleft()

            level = levels[index]
            mispredicted = mispredicted_flags[index]

            stats.total_branches += 1
            if mispredicted:
                stats.mispredictions += 1

            wants_fork = policy.should_fork(level)
            can_fork = len(outstanding) < policy.max_outstanding_forks
            if wants_fork and can_fork:
                stats.forks += 1
                outstanding.append(index + self.resolution_latency)
                stats.fork_overhead_cycles += (
                    policy.fork_overhead_per_branch * self.resolution_latency
                )
                if mispredicted:
                    stats.covered_mispredictions += 1
                    stats.penalty_cycles_avoided += policy.mispredict_penalty
            else:
                if wants_fork:
                    stats.forks_denied += 1
                if mispredicted:
                    stats.penalty_cycles += policy.mispredict_penalty
        return stats
