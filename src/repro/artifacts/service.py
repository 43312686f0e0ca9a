"""Planned sweep execution for artifact builders.

A :class:`SweepService` is the execution funnel of one pipeline
invocation (or one benchmark session).  It runs in two steps:

* :meth:`SweepService.execute` takes every grid the artifacts declare
  (:meth:`~repro.artifacts.spec.ArtifactSpec.grids`), builds one
  :class:`~repro.sweep.executor.ExecutionPlan` over those not served
  yet and runs it through :func:`~repro.sweep.executor.execute_plan`:
  the union is deduplicated by job spec hash and probed against the
  on-disk :class:`~repro.sweep.cache.ResultCache` once, lockstep-fused
  across artifacts, and executed on one worker pool that writes one
  journal;
* builders then read each grid's :class:`~repro.sweep.executor.SweepRun`
  back through :meth:`SweepService.sweep` (or :meth:`results` /
  :meth:`summary`), served from the executed plans' result maps
  (grid spec hash -> run).

A grid nobody declared still works: it executes on request as a
one-grid plan.  ``repro paper`` never takes that path — a test holds
every builder's requests equal to its declaration.

The service also owns the run accounting the ``repro paper`` CLI and CI
rely on: after a pipeline pass, ``n_executed == 0`` proves the run was
fully cache-served.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.sim.backends import DEFAULT_BACKEND, validate_backend
from repro.sim.stats import SuiteSummary
from repro.sweep.cache import ResultCache
from repro.sweep.executor import ExecutionPlan, SweepRun, execute_plan
from repro.sweep.spec import ExperimentSpec

__all__ = ["SweepService"]


class SweepService:
    """Plans, executes and serves the sweep grids of one artifact session."""

    def __init__(
        self,
        workers: int | None = 1,
        cache: ResultCache | None = None,
        backend: str = DEFAULT_BACKEND,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        validate_backend(backend)
        self.workers = workers
        self.cache = cache
        self.backend = backend
        self.progress = progress
        self._runs: dict[str, SweepRun] = {}

    def execute(
        self,
        specs: Iterable[ExperimentSpec],
        *,
        run_id: str | None = None,
        resume: bool = False,
    ) -> None:
        """Execute every grid not served yet as one plan.

        The service's backend overrides the specs': the backend is
        bit-for-bit result-invariant and excluded from every hash.
        ``run_id`` names the plan's journal, ``<cache>/runs/<run_id>.jsonl``,
        and ``resume=True`` continues it (a missing journal starts fresh).
        """
        pending = [
            spec.with_options(backend=self.backend)
            for spec in specs
            if spec.spec_hash() not in self._runs
        ]
        if not pending:
            return
        self._runs.update(execute_plan(
            ExecutionPlan.of(pending),
            workers=self.workers,
            cache=self.cache,
            progress=self.progress,
            run_id=run_id,
            resume=resume,
        ))

    def sweep(self, spec: ExperimentSpec) -> SweepRun:
        """One grid's executed sweep, executing it first when no plan
        has (an undeclared grid)."""
        key = spec.spec_hash()
        if key not in self._runs:
            self.execute((spec,))
        return self._runs[key]

    def results(self, spec: ExperimentSpec):
        """Raw per-job engine results of a grid, in grid order."""
        return self.sweep(spec).table.simulation_results()

    def summary(self, spec: ExperimentSpec) -> SuiteSummary:
        """Pooled suite summary of a grid (paper Tables 1-3 aggregates)."""
        return self.sweep(spec).table.summary()

    # -- accounting ----------------------------------------------------

    @property
    def runs(self) -> tuple[SweepRun, ...]:
        return tuple(self._runs.values())

    @property
    def n_jobs(self) -> int:
        """Grid cells requested across every distinct sweep."""
        return sum(run.n_jobs for run in self.runs)

    @property
    def n_cached(self) -> int:
        """Cells served without simulation (from the on-disk cache or by
        a duplicate cell of the same plan)."""
        return sum(run.n_cached for run in self.runs)

    @property
    def n_executed(self) -> int:
        """Distinct jobs actually simulated (0 == fully cache-served)."""
        return sum(run.n_executed for run in self.runs)

    def describe(self) -> str:
        return (
            f"{len(self.runs)} sweep(s), {self.n_jobs} jobs "
            f"({self.n_cached} cached, {self.n_executed} executed)"
        )
