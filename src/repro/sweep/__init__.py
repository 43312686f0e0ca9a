"""Experiment sweep orchestration.

The scaling backbone of the reproduction: a declarative
:class:`ExperimentSpec` (predictor × confidence estimator × trace grid)
expands into independent jobs, executes across a ``multiprocessing``
worker pool with deterministic per-job seeding, memoizes completed runs
in an on-disk :class:`ResultCache` keyed by spec hash, and aggregates
into a tidy :class:`ResultTable` that the paper benches, the CLI
``sweep`` command and the examples all consume.

Typical use::

    from repro.sweep import (
        EstimatorSpec, ExperimentSpec, PredictorSpec, ResultCache, run_sweep,
    )

    spec = ExperimentSpec(
        name="demo",
        predictors=(PredictorSpec.of("tage", size="64K"),
                    PredictorSpec.of("gshare")),
        estimators=(EstimatorSpec.of("tage"), EstimatorSpec.of("jrs")),
        traces=("INT-1", "MM-1", "SERV-1"),
        n_branches=16_000,
    )
    run = run_sweep(spec, workers=4, cache=ResultCache())
    print(run.table.to_tsv())

Sweeps are fault tolerant and resumable: the broker journals every
completion to an append-only run journal, retries transient failures
with backoff, quarantines deterministic ones, and
:func:`resume_sweep` (``repro sweep --resume <run-id>``) continues an
interrupted run bit-identically from the journal plus cache.

Several grids run together as one
:class:`~repro.sweep.executor.ExecutionPlan`
(:func:`~repro.sweep.executor.execute_plan`): their cells are
deduplicated by job, probed against the cache once, lockstep-fused
across grids and executed on one worker pool with one journal — how
``repro paper`` runs every artifact; :func:`run_sweep` is the
one-grid case.

Module map: :mod:`~repro.sweep.spec` (declarative specs + hashing),
:mod:`~repro.sweep.grid` (expansion + compatibility filtering),
:mod:`~repro.sweep.executor` (single-job entry point, execution plans
+ sweep API),
:mod:`~repro.sweep.broker` (dispatch, supervision, retry, quarantine),
:mod:`~repro.sweep.worker` (worker process loop + heartbeats),
:mod:`~repro.sweep.journal` (crash-safe run journal),
:mod:`~repro.sweep.faults` (deterministic fault injection),
:mod:`~repro.sweep.cache` (on-disk memoization),
:mod:`~repro.sweep.result` (tidy aggregation).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".spec": ("PREDICTOR_KINDS", "ESTIMATOR_KINDS", "PredictorSpec",
              "EstimatorSpec", "ExperimentSpec", "JobSpec"),
    ".grid": ("GridExpansion", "expand"),
    ".executor": ("execute_job", "run_sweep", "resume_sweep", "SweepRun",
                  "default_workers", "default_journal_dir"),
    ".broker": ("Broker", "BrokerConfig", "QuarantinedJob", "SweepInterrupted"),
    ".faults": ("FAULTS_ENV", "FaultInjector", "TransientJobError",
                "PoisonedJobError"),
    ".journal": ("JournalError", "JournalState", "RunJournal", "journal_path",
                 "replay_journal"),
    ".cache": ("ResultCache", "default_cache_dir"),
    ".result": ("JobResult", "ResultTable"),
})
