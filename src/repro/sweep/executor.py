"""Sweep execution: single-job entry point + fault-tolerant fan-out.

:func:`execute_job` is the picklable unit of work: it takes one
:class:`~repro.sweep.spec.JobSpec` (pure data), regenerates the named
trace inside the worker process (trace synthesis is deterministic and
memoized per process, so nothing large crosses the pipe), builds the
cell's components with :func:`build_cell` and runs the matching engine
on the job's backend — vectorized batch execution for
``backend="fast"`` cells the fast engine supports, the reference engine
(after a :class:`~repro.sim.backends.FastBackendFallbackWarning`) for
the rest.

There is one way to execute a set of grids: describe them as an
:class:`ExecutionPlan` (expand every grid, deduplicate the union of
their cells by job spec hash) and hand it to :func:`execute_plan`,
which serves cache hits, executes the misses through one supervised
:class:`~repro.sweep.broker.Broker` (journaled, heartbeat-monitored
worker processes with retry/backoff, quarantine and straggler
re-dispatch — see :mod:`repro.sweep.broker`) and returns each grid's
:class:`SweepRun`, its :class:`~repro.sweep.result.ResultTable` in
stable grid order.
:func:`run_sweep` is that path with a one-grid plan; ``repro paper``
runs every artifact's grids as one plan.  Because every job carries
its own deterministic seed (or relies on the components' fixed
built-in seeds), results are bit-for-bit identical for any worker
count — and for any retry/crash/re-dispatch history.

When a cache is attached, every plan also appends one crash-safe
:class:`~repro.sweep.journal.RunJournal` under ``<cache root>/runs``;
:func:`resume_sweep` (the ``repro sweep --resume <run-id>`` entry)
rebuilds a one-grid plan from that journal and re-runs *only* the
unfinished jobs, serving completed ones bit-identically from the cache.

Two fast-backend refinements happen before fan-out: unsupported fast
cells are probed once per distinct (predictor, estimator, adaptive)
cell and downgraded to the reference engine with a single
:class:`FastBackendFallbackWarning` (instead of one warning per job per
worker), and the fast TAGE jobs sharing one trace, length and plane
geometry — multi-class and JRS-family alike — are fused into one
:class:`~repro.sweep.spec.LockstepBatch` unit (:func:`plan_lockstep`)
that computes the trace's arrays and index/tag planes once, in memory.
Every cell the default grids can express — all predictor kinds, all estimator
kinds, adaptive §6.2 included — is inside the fast family, so a
``backend="fast"`` sweep over them emits no warnings at all; the probe
exists for subclassed components and >62-bit history windows.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import uuid
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.tage.config import AUTOMATON_PROBABILISTIC
from repro.sim.backends import (
    Capability,
    Cell,
    FastBackendFallbackWarning,
    get_backend,
    load_fast_engine,
)
from repro.sim.engine import simulate, simulate_binary
from repro.sim.runner import build_predictor, get_trace
from repro.sweep.broker import (
    Broker,
    BrokerConfig,
    QuarantinedJob,
    SweepInterrupted,
)
from repro.sweep.cache import ResultCache
from repro.sweep.faults import FAULTS_ENV
from repro.sweep.grid import GridExpansion, expand
from repro.sweep.journal import (
    JournalError,
    RunJournal,
    journal_path,
    replay_journal,
)
from repro.sweep.result import JobResult, ResultTable
from repro.sweep.spec import (
    EstimatorSpec,
    ExperimentSpec,
    JobSpec,
    LockstepBatch,
    PredictorSpec,
    stable_digest,
)

__all__ = [
    "execute_job",
    "execute_batch",
    "execute_work",
    "plan_lockstep",
    "ExecutionPlan",
    "execute_plan",
    "run_sweep",
    "resume_sweep",
    "SweepRun",
    "SweepInterrupted",
    "QuarantinedJob",
    "LOCKSTEP_MAX_BATCH",
    "default_workers",
    "default_journal_dir",
    "build_cell",
]

#: Largest lockstep unit the planner builds.  Members run one at a time
#: over the unit's shared planes, so a unit holds one plane set and one
#: cell's tables whatever its size; the cap keeps enough independent
#: units for the worker pool to stay busy.
LOCKSTEP_MAX_BATCH = 16

#: Estimator kinds whose fast TAGE jobs join a geometry unit (``self``
#: never pairs with TAGE — see :meth:`EstimatorSpec.compatible_with`).
_UNIT_ESTIMATORS = ("tage", "jrs", "ejrs")

_BASELINE_PREDICTORS = {
    "gshare": GsharePredictor,
    "bimodal": BimodalPredictor,
    "perceptron": PerceptronPredictor,
    "ogehl": OgehlPredictor,
    "local": LocalHistoryPredictor,
}


def default_workers() -> int:
    """Pool size when the caller does not choose: one per CPU, min 2.

    The floor of 2 keeps the default path genuinely parallel (pipelined
    pickling/execution) even on single-core containers.
    """
    return max(2, os.cpu_count() or 1)


def build_cell(
    predictor_spec: PredictorSpec,
    estimator_spec: EstimatorSpec | None,
    *,
    adaptive: bool = False,
    seed: int | None = None,
    target_mkp: float = 10.0,
) -> Cell:
    """Fresh power-on components of one (predictor, estimator) cell.

    The one construction of a cell's predictor, estimator and §6.2
    controller, shared by sweep jobs, lockstep units, the capability
    pre-pass and the serving layer's tenants and offline replays, so a
    served cell is built exactly like the equivalent sweep job.

    ``adaptive`` forces the TAGE probabilistic automaton and, under the
    ``tage`` estimator, attaches the adaptive saturation controller
    aiming at ``target_mkp``.  A non-None ``seed`` re-seeds the TAGE
    deterministic random sources (LFSR + allocation xorshift); the
    baseline predictors hold no random state.  A None
    ``estimator_spec`` gives a predictor-only cell; the ``jrs``,
    ``ejrs`` and ``self`` estimators give a binary one.
    """
    params = dict(predictor_spec.params)
    if predictor_spec.kind == "tage":
        if seed is not None:
            # Two independent 32-bit streams from one job seed; the
            # constants are arbitrary odd masks keeping the seeds nonzero.
            params.setdefault("lfsr_seed", (seed ^ 0xA5A5A5A5) or 1)
            params.setdefault("alloc_seed", (seed ^ 0x3C6EF373) or 1)
        predictor = build_predictor(
            predictor_spec.size,
            automaton=AUTOMATON_PROBABILISTIC if adaptive else predictor_spec.automaton,
            sat_prob_log2=predictor_spec.sat_prob_log2,
            **params,
        )
    else:
        predictor = _BASELINE_PREDICTORS[predictor_spec.kind](**params)
    if estimator_spec is None:
        return Cell(predictor)
    params = dict(estimator_spec.params)
    if estimator_spec.kind == "tage":
        controller = (
            AdaptiveSaturationController(predictor, target_mkp=target_mkp)
            if adaptive
            else None
        )
        return Cell(predictor, TageConfidenceEstimator(predictor, **params),
                    controller)
    if estimator_spec.kind == "jrs":
        estimator = JrsEstimator(**params)
    elif estimator_spec.kind == "ejrs":
        estimator = EnhancedJrsEstimator(**params)
    else:  # "self"
        estimator = SelfConfidenceEstimator(predictor, **params)
    return Cell(predictor, estimator, binary=True)


def execute_job(job: JobSpec) -> JobResult:
    """Run one grid cell; pure function of the job spec (picklable)."""
    start = time.perf_counter()
    trace = get_trace(job.trace, job.n_branches)
    cell = build_cell(job.predictor, job.estimator, adaptive=job.adaptive,
                      seed=job.seed, target_mkp=job.target_mkp)
    if cell.binary:
        binary, result = simulate_binary(
            trace,
            cell.predictor,
            cell.estimator,
            warmup_branches=job.warmup_branches,
            backend=job.backend,
        )
        estimator_bits = cell.estimator.storage_bits()
    else:
        result = simulate(
            trace,
            cell.predictor,
            estimator=cell.estimator,
            controller=cell.controller,
            warmup_branches=job.warmup_branches,
            backend=job.backend,
        )
        binary = result.binary_confusion()
        estimator_bits = 0

    return JobResult(
        job=job,
        result=result,
        binary=binary,
        estimator_bits=estimator_bits,
        elapsed=time.perf_counter() - start,
    )


def execute_batch(batch: LockstepBatch) -> tuple[JobResult, ...]:
    """Run one lockstep unit; one :class:`JobResult` per member, in order.

    Every member shares the unit's trace, length and plane geometry
    (the planner guarantees it), so the trace arrays and index/tag
    planes are computed once, in memory.  The multi-class ``tage``
    members advance through one
    :func:`~repro.sim.fast.lockstep.simulate_tage_lockstep` pass over
    those planes and each ``jrs``/``ejrs`` member runs
    :func:`~repro.sim.fast.engine.simulate_binary_fast` over them — all
    bit-identical to running each member through :func:`execute_job`
    independently.  Every ``tage`` member without a §6.2 controller
    publishes its prediction stream in that pass, and a binary member
    of the same TAGE configuration reads it instead of making its own
    kernel pass; the stream stays on the
    trace's :class:`~repro.sim.fast.arrays.TraceArrays`, with the JRS
    index the binary members share, until the worker moves to another
    trace.  The unit's wall-clock cost is attributed evenly across the
    members' ``elapsed`` fields.
    """
    start = time.perf_counter()
    jobs = [job for _, job in batch.members]
    trace = get_trace(jobs[0].trace, jobs[0].n_branches)
    fast = load_fast_engine()
    cells = [
        build_cell(job.predictor, job.estimator, adaptive=job.adaptive,
                   seed=job.seed, target_mkp=job.target_mkp)
        for job in jobs
    ]
    planes = fast.compute_planes(
        fast.TraceArrays.from_trace(trace),
        fast.plane_geometry(cells[0].predictor.config),
    )
    multi_class = iter(fast.simulate_tage_lockstep(trace, [
        fast.LockstepCell(cell.predictor, cell.estimator, cell.controller,
                          warmup_branches=job.warmup_branches)
        for job, cell in zip(jobs, cells)
        if not cell.binary
    ], planes=planes))
    outcomes = []
    for job, cell in zip(jobs, cells):
        if not cell.binary:
            result = next(multi_class)
            outcomes.append((result, result.binary_confusion(), 0))
            continue
        binary, result = fast.simulate_binary_fast(
            trace, cell.predictor, cell.estimator,
            warmup_branches=job.warmup_branches, planes=planes,
        )
        outcomes.append((result, binary, cell.estimator.storage_bits()))
    elapsed = (time.perf_counter() - start) / len(jobs)
    return tuple(
        JobResult(job=job, result=result, binary=binary,
                  estimator_bits=estimator_bits, elapsed=elapsed)
        for job, (result, binary, estimator_bits) in zip(jobs, outcomes)
    )


def execute_work(unit: JobSpec | LockstepBatch):
    """The broker/worker entry point: run one work unit of either shape."""
    if isinstance(unit, LockstepBatch):
        return execute_batch(unit)
    return execute_job(unit)


def _lockstep_key(job: JobSpec, geometries: dict) -> tuple | None:
    """The grouping key a job must share to join a lockstep unit
    (None = the job cannot join one).

    Fast-backend TAGE jobs qualify under the multi-class ``tage`` and
    the binary ``jrs``/``ejrs`` estimators (the capability API's
    ``lockstep`` flag); the key pins everything a unit shares — the
    trace, its length and the plane geometry the predictor's config
    folds to.  Kernel knobs (automaton, saturation probability, seeds,
    warmup, §6.2 controller) and the estimator may differ freely across
    members.
    """
    if job.backend != "fast" or job.predictor.kind != "tage":
        return None
    if job.estimator.kind not in _UNIT_ESTIMATORS:
        return None
    cell = (job.predictor, job.adaptive)
    if cell not in geometries:
        fast = load_fast_engine()
        predictor = build_cell(job.predictor, None, adaptive=job.adaptive).predictor
        geometries[cell] = fast.plane_geometry(predictor.config)
    return (job.trace, job.n_branches, geometries[cell])


def plan_lockstep(
    pending: list[tuple[int, JobSpec]],
    progress: Callable[[str], None] | None = None,
) -> list[tuple[int, JobSpec | LockstepBatch]]:
    """Fuse the fast TAGE jobs of one trace × plane geometry into
    :class:`LockstepBatch` units.

    Jobs sharing one trace's planes (same trace, branch count and plane
    geometry; see :func:`_lockstep_key`) are grouped — in grid order, at
    most :data:`LOCKSTEP_MAX_BATCH` per unit — and each group of two or
    more becomes one unit, emitted at its first member's position with
    that member's grid index as the unit index.  Everything else passes
    through unchanged, so the plan preserves grid order and the fusion
    is invisible in the results: each member is cached, journaled and
    reported under its own index and spec hash.
    """
    geometries: dict = {}
    groups: dict[tuple, list[tuple[int, JobSpec]]] = {}
    for index, job in pending:
        key = _lockstep_key(job, geometries)
        if key is not None:
            groups.setdefault(key, []).append((index, job))

    batches: dict[int, LockstepBatch] = {}
    fused_members: set[int] = set()
    for members in groups.values():
        for chunk_start in range(0, len(members), LOCKSTEP_MAX_BATCH):
            chunk = members[chunk_start:chunk_start + LOCKSTEP_MAX_BATCH]
            if len(chunk) < 2:
                continue
            batch = LockstepBatch(members=tuple(chunk))
            batches[batch.index] = batch
            fused_members.update(index for index, _ in chunk)

    plan: list[tuple[int, JobSpec | LockstepBatch]] = []
    for index, job in pending:
        if index in batches:
            plan.append((index, batches[index]))
        elif index not in fused_members:
            plan.append((index, job))
    if progress and batches:
        progress(
            f"lockstep: fused {len(fused_members)} job(s) into {len(batches)} "
            f"batch(es) of <= {LOCKSTEP_MAX_BATCH}"
        )
    return plan


def _resolve_fast_fallbacks(
    pending: list[tuple[int, JobSpec]],
    progress: Callable[[str], None] | None = None,
) -> list[tuple[int, JobSpec]]:
    """Downgrade unsupported ``backend="fast"`` cells before fan-out.

    Probing once per distinct (predictor, estimator) cell — instead of
    letting every worker rediscover the same fallback — means a mixed
    sweep emits exactly one :class:`FastBackendFallbackWarning` per
    unsupported cell per run, regardless of trace count or worker count.
    The downgraded jobs run on the reference engine directly (identical
    results; the backend is not part of the cache identity).
    """
    verdicts: dict[tuple[PredictorSpec, EstimatorSpec, bool], Capability] = {}
    resolved: list[tuple[int, JobSpec]] = []
    downgraded: dict[tuple[PredictorSpec, EstimatorSpec, bool], int] = {}
    for index, job in pending:
        if job.backend != "fast":
            resolved.append((index, job))
            continue
        cell = (job.predictor, job.estimator, job.adaptive)
        if cell not in verdicts:
            # Throwaway components built exactly as execution builds
            # them, so the pre-pass can never disagree with execution.
            verdicts[cell] = get_backend("fast").capability(build_cell(
                job.predictor, job.estimator, adaptive=job.adaptive,
                seed=job.seed, target_mkp=job.target_mkp,
            ))
        if verdicts[cell]:
            resolved.append((index, job))
        else:
            downgraded[cell] = downgraded.get(cell, 0) + 1
            resolved.append((index, replace(job, backend="reference")))
    for cell, count in downgraded.items():
        predictor, estimator, _ = cell
        warnings.warn(
            f"fast backend cannot run {predictor.label}x{estimator.label} "
            f"({verdicts[cell].reason}); falling back to the reference "
            f"engine for {count} job(s)",
            FastBackendFallbackWarning,
            stacklevel=3,
        )
        if progress:
            progress(
                f"fallback: {predictor.label}x{estimator.label} -> reference "
                f"({count} job(s))"
            )
    return resolved


@dataclass(frozen=True)
class ExecutionPlan:
    """A set of grids described apart from the engine that runs them.

    ``keys[g]`` is grid ``g``'s spec hash.  The union of the grids'
    cells is deduplicated by job spec hash into ``jobs``
    (first-appearance order), the unit of caching, journaling and
    execution.  ``cells[g][c]`` is the plan index serving cell ``c``
    of grid ``g``, and ``owners[i]`` is the ``(g, c)`` cell that first
    requested job ``i`` — the one credited with simulating it.  Build
    one with :meth:`of`; run it with :func:`execute_plan`.
    """

    expansions: tuple[GridExpansion, ...]
    keys: tuple[str, ...]
    jobs: tuple[JobSpec, ...]
    cells: tuple[tuple[int, ...], ...]
    owners: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, specs: Iterable[ExperimentSpec]) -> "ExecutionPlan":
        """Expand the distinct grids (by spec hash, first wins) and
        deduplicate their union.

        Raises:
            ValueError: a grid fails expansion (see :func:`expand`), or
                no grid was given.
        """
        expansions: dict[str, GridExpansion] = {}
        for spec in specs:
            key = spec.spec_hash()
            if key not in expansions:
                expansions[key] = expand(spec)
        if not expansions:
            raise ValueError("an execution plan needs at least one grid")
        jobs: list[JobSpec] = []
        owners: list[tuple[int, int]] = []
        index_of: dict[str, int] = {}
        cells = []
        for position, expansion in enumerate(expansions.values()):
            grid_cells = []
            for cell, job in enumerate(expansion.jobs):
                key = job.spec_hash()
                if key not in index_of:
                    index_of[key] = len(jobs)
                    jobs.append(job)
                    owners.append((position, cell))
                grid_cells.append(index_of[key])
            cells.append(tuple(grid_cells))
        return cls(tuple(expansions.values()), tuple(expansions), tuple(jobs),
                   tuple(cells), tuple(owners))

    def as_dict(self) -> dict:
        """What the journal's ``begin`` record stores as the run's spec.

        A one-grid plan journals its grid's own spec dict, so ``repro
        sweep --resume`` rebuilds it from the journal alone; a
        multi-grid plan journals the list of its grid hashes under
        ``"plan"`` (its grids come from whoever declared them).
        """
        if len(self.keys) == 1:
            return self.expansions[0].spec.as_dict()
        return {"plan": list(self.keys)}

    def plan_hash(self) -> str:
        if len(self.keys) == 1:
            return self.keys[0]
        return stable_digest(self.as_dict())

    def describe(self) -> str:
        if len(self.expansions) == 1:
            return self.expansions[0].describe()
        return (
            f"plan: {len(self.expansions)} grid(s), "
            f"{sum(map(len, self.cells))} cells, "
            f"{len(self.jobs)} distinct jobs"
        )


@dataclass(frozen=True)
class SweepRun:
    """A completed sweep: the aggregate table plus execution accounting.

    ``quarantined`` lists the jobs the broker gave up on (deterministic
    failures, or transient ones past ``max_retries``); their cells are
    absent from ``table``, making the run a *partial-result report*
    rather than a total loss.  ``run_id`` names the journal a
    ``--resume`` of this run would replay.  A grid executed as part of
    a larger plan reports that plan's workers, wall time, run id and
    retries.
    """

    spec: ExperimentSpec
    expansion: GridExpansion
    table: ResultTable
    workers: int
    elapsed: float
    quarantined: tuple[QuarantinedJob, ...] = ()
    run_id: str | None = None
    n_retries: int = 0

    @property
    def n_jobs(self) -> int:
        return len(self.table)

    @property
    def n_cached(self) -> int:
        return self.table.n_cached

    @property
    def n_executed(self) -> int:
        return self.table.n_executed

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantined)

    def describe(self) -> str:
        text = (
            f"{self.spec.name} [{self.spec.spec_hash()}]: "
            f"{self.n_jobs} jobs ({self.n_cached} cached, "
            f"{self.n_executed} executed) with {self.workers} workers "
            f"in {self.elapsed:.2f}s"
        )
        if self.n_retries:
            text += f"; {self.n_retries} retr{'y' if self.n_retries == 1 else 'ies'}"
        if self.quarantined:
            text += f"; {self.n_quarantined} QUARANTINED"
        return text


def default_journal_dir(cache: ResultCache | None) -> Path | None:
    """Where run journals live by default: ``<cache root>/runs``."""
    if cache is None:
        return None
    return cache.root / "runs"


def _open_journal(
    plan: ExecutionPlan,
    run_id: str | None,
    journal_dir,
    resume: bool,
    fsync_journal: bool,
    progress: Callable[[str], None] | None,
) -> tuple[RunJournal | None, str | None, dict[int, str]]:
    """Open (or resume) this run's journal.

    Returns ``(journal, run_id, done)`` where ``done`` maps plan indices
    the journal already records as completed to their job hashes.
    """
    if journal_dir is None:
        return None, run_id, {}
    if run_id is None:
        # repro: allow[RPR001] run-id labels the journal file, never results
        run_id = f"{plan.plan_hash()}-{uuid.uuid4().hex[:8]}"
    path = journal_path(journal_dir, run_id)
    job_hashes = [job.spec_hash() for job in plan.jobs]
    if resume and path.exists():
        state = replay_journal(path, run_id)
        if state.spec_hash != plan.plan_hash():
            raise JournalError(
                f"journal {path} records spec {state.spec_hash}, but the "
                f"resumed run hashes to {plan.plan_hash()}"
            )
        if list(state.job_hashes) != job_hashes:
            raise JournalError(
                f"journal {path} records a different grid expansion than "
                "the resumed run produces"
            )
        journal = RunJournal(path, run_id, fresh=False, fsync=fsync_journal)
        journal.resume(len(state.done), len(state.pending_indices))
        if progress:
            progress(
                f"resume {run_id}: journal records {len(state.done)} of "
                f"{state.n_jobs} jobs done"
            )
        return journal, run_id, dict(state.done)
    journal = RunJournal(path, run_id, fresh=True, fsync=fsync_journal)
    journal.begin(plan.as_dict(), plan.plan_hash(), job_hashes)
    return journal, run_id, {}


def execute_plan(
    plan: ExecutionPlan,
    workers: int | None = 1,
    cache: ResultCache | None = None,
    progress: Callable[[str], None] | None = None,
    *,
    run_id: str | None = None,
    journal_dir: str | os.PathLike | None = None,
    resume: bool = False,
    max_retries: int = 2,
    heartbeat_timeout: float = 30.0,
    faults: str | None = None,
    fsync_journal: bool = True,
) -> dict[str, SweepRun]:
    """Execute every distinct job of a plan on one broker.

    The cache is probed once per distinct job; the misses are
    fallback-resolved, lockstep-fused across every grid of the plan and
    run by a single :class:`~repro.sweep.broker.Broker`, which
    dispatches them trace by trace — one worker pool, one journal
    (``<journal_dir>/<run_id>.jsonl``, indexed by plan index).
    The arguments are :func:`run_sweep`'s.

    Returns:
        The plan's result map: each grid's :class:`SweepRun`, keyed by
        its spec hash in plan order.  A cell is *executed* in the grid
        whose cell first requested its job (``ExecutionPlan.owners``)
        and *cached* everywhere else, so the grids' counts add up to
        the plan's: distinct jobs simulated, and cells served without
        simulation (from the cache or by a duplicate cell).

    Raises:
        SweepInterrupted: on SIGINT/SIGTERM, after the journal has a
            clean checkpoint; resume with the run id it carries.
    """
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if journal_dir is None:
        journal_dir = default_journal_dir(cache)
    if faults is None:
        faults = os.environ.get(FAULTS_ENV, "")

    start = time.perf_counter()
    if progress:
        progress(plan.describe())

    journal, run_id, journal_done = _open_journal(
        plan, run_id, journal_dir, resume, fsync_journal, progress
    )
    try:
        slots: list[JobResult | None] = []
        pending: list[tuple[int, JobSpec]] = []
        for index, job in enumerate(plan.jobs):
            hit = cache.load(job) if cache is not None else None
            if hit is None and index in journal_done:
                # The journal promised this job was done but the cache
                # cannot honour it (entry evicted or quarantined as
                # corrupt): re-run rather than fail the resume.
                if progress:
                    progress(
                        f"journal records job {index} done but the cache "
                        "misses; re-running"
                    )
            slots.append(hit)
            if hit is None:
                pending.append((index, job))

        if progress and cache is not None:
            progress(f"cache: {len(slots) - len(pending)} hits, "
                     f"{len(pending)} misses")

        quarantined: tuple[QuarantinedJob, ...] = ()
        n_retries = 0
        if pending:
            pending = _resolve_fast_fallbacks(pending, progress)
            # Fault plans key on job indices and fire per dispatched
            # unit, so fusing would shift which jobs a plan hits: a
            # fault-injected run dispatches every job alone.
            units: list[tuple[int, JobSpec | LockstepBatch]] = (
                list(pending) if faults else plan_lockstep(pending, progress)
            )
            broker = Broker(
                BrokerConfig(
                    workers=min(workers, len(units)),
                    max_retries=max_retries,
                    heartbeat_timeout=heartbeat_timeout,
                    faults=faults,
                ),
                ctx=multiprocessing.get_context(),
                run_id=run_id,
                cache=cache,
                journal=journal,
                progress=progress,
            )
            outcomes, dropped = broker.run(units)
            n_retries = broker.n_retries
            quarantined = tuple(dropped)
            for index, outcome in outcomes.items():
                slots[index] = outcome

        if journal is not None:
            journal.end(
                sum(1 for slot in slots if slot is not None), len(quarantined)
            )
    finally:
        if journal is not None:
            journal.close()

    elapsed = time.perf_counter() - start
    failed = {entry.index: entry for entry in quarantined}
    runs: dict[str, SweepRun] = {}
    for position, expansion in enumerate(plan.expansions):
        results, dropped = [], []
        for cell, index in enumerate(plan.cells[position]):
            result = slots[index]
            if result is None:
                dropped.append(replace(failed[index], index=cell))
                continue
            if plan.owners[index] != (position, cell):
                result = result.cached()
            results.append(result)
        runs[plan.keys[position]] = SweepRun(
            spec=expansion.spec,
            expansion=expansion,
            table=ResultTable(results),
            workers=workers,
            elapsed=elapsed,
            quarantined=tuple(dropped),
            run_id=run_id,
            n_retries=n_retries,
        )
    return runs


def run_sweep(
    spec: ExperimentSpec,
    workers: int | None = 1,
    cache: ResultCache | None = None,
    progress: Callable[[str], None] | None = None,
    *,
    run_id: str | None = None,
    journal_dir: str | os.PathLike | None = None,
    resume: bool = False,
    max_retries: int = 2,
    heartbeat_timeout: float = 30.0,
    faults: str | None = None,
    fsync_journal: bool = True,
) -> SweepRun:
    """Execute every cell of a spec and aggregate the results.

    A one-grid :class:`ExecutionPlan` through :func:`execute_plan`.

    Args:
        spec: the declarative grid.
        workers: pool size; 1 (the default) runs in-process, ``None``
            picks :func:`default_workers`.  Results are identical for
            every value.
        cache: optional :class:`ResultCache`; hits skip execution,
            misses are stored the moment each job completes.
        progress: optional sink for human-readable status lines.
        run_id: names this run's journal (auto-generated when omitted);
            the handle ``--resume`` takes.
        journal_dir: where journals live; defaults to
            ``<cache root>/runs`` when a cache is given, and journaling
            is disabled when neither is available.
        resume: continue the journal named by ``run_id`` — completed
            jobs are served bit-identically from the cache; only the
            rest execute.  A missing journal starts fresh.
        max_retries: transient-failure budget per job (crash, stall,
            :class:`~repro.sweep.faults.TransientJobError`) before the
            job is quarantined.
        heartbeat_timeout: seconds of worker silence before the broker
            declares a straggler and re-dispatches its job.
        faults: a :class:`~repro.sweep.faults.FaultInjector` plan;
            defaults to ``$REPRO_FAULTS``.
        fsync_journal: fsync each journal record (leave on outside
            tests; without it a crash can forget acknowledged progress).

    Fast-backend TAGE jobs sharing one trace's planes are fused into
    units that compute them once (bit-identical results; see
    :func:`plan_lockstep`), except under ``faults``, whose plans key on
    per-job indices: then every job runs alone through
    :func:`execute_job`.

    Returns:
        A :class:`SweepRun` whose table preserves grid order (minus any
        quarantined cells, reported in ``SweepRun.quarantined``).

    Raises:
        SweepInterrupted: on SIGINT/SIGTERM, after the journal has a
            clean checkpoint; resume with the run id it carries.
    """
    run = execute_plan(
        ExecutionPlan.of((spec,)),
        workers=workers,
        cache=cache,
        progress=progress,
        run_id=run_id,
        journal_dir=journal_dir,
        resume=resume,
        max_retries=max_retries,
        heartbeat_timeout=heartbeat_timeout,
        faults=faults,
        fsync_journal=fsync_journal,
    )[spec.spec_hash()]
    if progress:
        progress(run.describe())
    return run


def resume_sweep(
    run_id: str,
    cache: ResultCache,
    workers: int | None = 1,
    progress: Callable[[str], None] | None = None,
    *,
    journal_dir: str | os.PathLike | None = None,
    backend: str | None = None,
    max_retries: int = 2,
    heartbeat_timeout: float = 30.0,
    faults: str | None = None,
    fsync_journal: bool = True,
) -> SweepRun:
    """Resume an interrupted run from its journal alone.

    The spec is reconstructed from the journal's ``begin`` record —
    the caller needs nothing but the run id.  Completed jobs are served
    bit-identically from the cache; unfinished (and previously
    quarantined) jobs execute.

    Args:
        run_id: the id printed (and journaled) by the original run.
        cache: the same result cache the original run used.
        backend: engine override; None keeps the spec's recorded axes on
            the default backend (results are backend-invariant).

    Raises:
        JournalError: unknown run id, a journal that does not match
            its own spec, or a ``repro paper`` plan journal.
    """
    if journal_dir is None:
        journal_dir = default_journal_dir(cache)
    path = journal_path(journal_dir, run_id)
    if not path.exists():
        raise JournalError(f"no journal for run id {run_id!r} under {journal_dir}")
    state = replay_journal(path, run_id)
    if "plan" in state.spec_dict:
        raise JournalError(
            f"run {run_id!r} journals a multi-grid `repro paper` plan, not "
            f"one sweep; resume it with `repro paper --run-id {run_id} "
            "--resume` and the original selection and scale"
        )
    spec = ExperimentSpec.from_dict(state.spec_dict)
    if backend is not None:
        spec = spec.with_options(backend=backend)
    return run_sweep(
        spec,
        workers=workers,
        cache=cache,
        progress=progress,
        run_id=run_id,
        journal_dir=journal_dir,
        resume=True,
        max_retries=max_retries,
        heartbeat_timeout=heartbeat_timeout,
        faults=faults,
        fsync_journal=fsync_journal,
    )
