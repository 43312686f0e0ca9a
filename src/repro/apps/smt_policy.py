"""Confidence-directed SMT fetch policy.

Luo et al. [7] (and many follow-ups) boost SMT throughput by steering
fetch bandwidth away from threads that are probably on the wrong path.
This model runs two (or more) threads, each a trace + TAGE predictor +
confidence estimator, and each cycle gives the fetch slot to a thread
chosen by the policy:

* ``round_robin`` — the confidence-oblivious baseline;
* ``confidence`` — fetch from the thread with the lowest
  confidence-weighted count of unresolved branches (ties broken round
  robin).

The figure of merit is the *wrong-path fetch fraction*: instructions
fetched behind a branch that will turn out mispredicted.  A good
confidence estimator lowers it without starving any thread.

Each thread's predictor only ever sees its own trace in its own order —
arbitration changes *when* a branch is fetched, never *what* the
predictor observes — so the per-thread confidence streams are
precomputed with :func:`repro.sim.observe.observe_trace` (on either
simulation backend) and the cycle-level arbitration replays over them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from repro.confidence.classes import ConfidenceLevel
from repro.confidence.estimator import TageConfidenceEstimator
from repro.sim.backends import DEFAULT_BACKEND
from repro.sim.observe import ObservationStream, observe_trace

__all__ = ["SmtPolicy", "SmtStats", "SmtFetchModel"]


class SmtPolicy(Enum):
    """Fetch slot arbitration policy."""

    ROUND_ROBIN = "round-robin"
    CONFIDENCE = "confidence"


_LEVEL_WEIGHT = {
    ConfidenceLevel.LOW: 1.0,
    ConfidenceLevel.MEDIUM: 0.25,
    ConfidenceLevel.HIGH: 0.0,
}


@dataclass
class SmtStats:
    """Per-run statistics of the SMT fetch model."""

    cycles: int = 0
    fetched_instructions: int = 0
    wrong_path_instructions: int = 0
    per_thread_fetched: list[int] = field(default_factory=list)

    @property
    def wrong_path_fraction(self) -> float:
        if self.fetched_instructions == 0:
            return 0.0
        return self.wrong_path_instructions / self.fetched_instructions

    @property
    def fairness(self) -> float:
        """Min/max ratio of per-thread fetched instructions (1.0 = fair)."""
        if not self.per_thread_fetched or max(self.per_thread_fetched) == 0:
            return 1.0
        return min(self.per_thread_fetched) / max(self.per_thread_fetched)

    def summary(self) -> str:
        return (
            f"{self.cycles} cycles, {self.fetched_instructions} insts, "
            f"wrong-path {self.wrong_path_fraction:.1%}, fairness {self.fairness:.2f}"
        )


class _ThreadContext:
    """One hardware thread: a recorded observation stream + replay cursor."""

    __slots__ = ("insts", "stream", "levels", "cursor", "in_flight", "pressure",
                 "unresolved_mispredictions")

    def __init__(self, insts, stream: ObservationStream) -> None:
        self.insts = insts
        self.stream = stream
        self.levels = stream.levels
        self.cursor = 0
        # (weight, mispredicted, resolve_cycle) per unresolved branch.
        # Branches resolve after a fixed number of *machine cycles*, not
        # thread-local fetches — otherwise an unscheduled thread's
        # pressure would freeze and the arbiter would starve it forever.
        self.in_flight: deque[tuple[float, bool, int]] = deque()
        self.pressure = 0.0
        # Mispredicted entries of in_flight, kept by issue/drain.
        self.unresolved_mispredictions = 0

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.stream)

    def issue(self, weight: float, mispredicted: bool, resolve_cycle: int) -> None:
        self.in_flight.append((weight, mispredicted, resolve_cycle))
        self.pressure += weight
        if mispredicted:
            self.unresolved_mispredictions += 1

    def drain_resolved(self, now: int) -> None:
        while self.in_flight and self.in_flight[0][2] <= now:
            weight, mispredicted, _ = self.in_flight.popleft()
            self.pressure -= weight
            if mispredicted:
                self.unresolved_mispredictions -= 1

    def has_unresolved_misprediction(self) -> bool:
        return self.unresolved_mispredictions > 0


class SmtFetchModel:
    """Cycle-interleaved multi-thread fetch with confidence arbitration.

    Args:
        threads: (trace, predictor, estimator) triples.
        policy: arbitration policy.
        resolution_latency: branches in flight before resolution.
    """

    def __init__(
        self,
        threads: list[tuple[object, object, TageConfidenceEstimator]],
        policy: SmtPolicy = SmtPolicy.CONFIDENCE,
        resolution_latency: int = 8,
        max_cycles: int | None = None,
    ) -> None:
        if len(threads) < 2:
            raise ValueError(f"an SMT model needs >= 2 threads, got {len(threads)}")
        if resolution_latency <= 0:
            raise ValueError(f"resolution_latency must be positive, got {resolution_latency}")
        if max_cycles is not None and max_cycles <= 0:
            raise ValueError(f"max_cycles must be positive, got {max_cycles}")
        self.policy = policy
        self.resolution_latency = resolution_latency
        self.max_cycles = max_cycles
        self.threads = list(threads)
        self._threads: list[_ThreadContext] = []
        self._next_round_robin = 0

    def _choose_thread(self) -> _ThreadContext | None:
        candidates = [thread for thread in self._threads if not thread.exhausted]
        if not candidates:
            return None
        if self.policy is SmtPolicy.ROUND_ROBIN:
            for offset in range(len(self._threads)):
                index = (self._next_round_robin + offset) % len(self._threads)
                if not self._threads[index].exhausted:
                    self._next_round_robin = (index + 1) % len(self._threads)
                    return self._threads[index]
            return None
        # Confidence policy: lowest wrong-path pressure first; round-robin
        # among equals so no thread starves.
        best = min(candidates, key=lambda thread: thread.pressure)
        tied = [thread for thread in candidates if thread.pressure == best.pressure]
        if len(tied) > 1:
            for offset in range(len(self._threads)):
                index = (self._next_round_robin + offset) % len(self._threads)
                if self._threads[index] in tied:
                    self._next_round_robin = (index + 1) % len(self._threads)
                    return self._threads[index]
        return best

    def _step_thread(
        self, thread: _ThreadContext, stats: SmtStats, slot: int, now: int
    ) -> None:
        cursor = thread.cursor
        inst = thread.insts[cursor]
        level = thread.levels[cursor]
        mispredicted = thread.stream.mispredicted[cursor]
        thread.cursor = cursor + 1

        stats.fetched_instructions += inst
        stats.per_thread_fetched[slot] += inst
        if thread.has_unresolved_misprediction():
            stats.wrong_path_instructions += inst

        thread.issue(_LEVEL_WEIGHT[level], mispredicted, now + self.resolution_latency)

    def observe_threads(
        self, backend: str = DEFAULT_BACKEND
    ) -> list[ObservationStream]:
        """Each thread's observation stream, in thread order.

        Streams are policy-invariant (arbitration changes *when* a
        branch is fetched, never what its predictor observes), so
        callers comparing policies over the same threads can compute
        them once and hand them to :meth:`replay` for every policy.
        """
        return [
            observe_trace(trace, predictor, estimator, backend=backend)
            for trace, predictor, estimator in self.threads
        ]

    def run(self, backend: str = DEFAULT_BACKEND) -> SmtStats:
        """Interleave the threads until every trace is exhausted or the
        cycle budget runs out.

        With a ``max_cycles`` budget the run measures *bandwidth
        allocation quality*: a policy that steers fetch toward probably-
        right-path threads fetches more useful instructions inside the
        same budget.  Without a budget every branch of every trace is
        eventually fetched, so only the interleaving (not the totals)
        differs between policies.

        ``backend`` selects the engine that produces each thread's
        observation stream; the arbitration replay is backend-invariant.
        """
        return self.replay(self.observe_threads(backend))

    def replay(self, streams: list[ObservationStream]) -> SmtStats:
        """Replay the arbitration policy over recorded per-thread streams."""
        if len(streams) != len(self.threads):
            raise ValueError(
                f"need one stream per thread ({len(self.threads)}), "
                f"got {len(streams)}"
            )
        for slot, ((trace, _, _), stream) in enumerate(zip(self.threads, streams)):
            if len(stream) != len(trace.insts):
                raise ValueError(
                    f"thread {slot}: stream ({len(stream)} branches) does "
                    f"not match its trace ({len(trace.insts)} branches)"
                )
        self._threads = [
            _ThreadContext(trace.insts, stream)
            for (trace, _, _), stream in zip(self.threads, streams)
        ]
        self._next_round_robin = 0
        stats = SmtStats(per_thread_fetched=[0] * len(self._threads))
        while self.max_cycles is None or stats.cycles < self.max_cycles:
            for thread in self._threads:
                thread.drain_resolved(stats.cycles)
            thread = self._choose_thread()
            if thread is None:
                break
            stats.cycles += 1
            slot = self._threads.index(thread)
            self._step_thread(thread, stats, slot, stats.cycles)
        return stats
