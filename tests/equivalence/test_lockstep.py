"""Lockstep batching equivalence: fused passes are invisible.

A lockstep batch runs many ablation cells through one kernel pass over
one set of trace planes; a sweep unit adds the JRS-family jobs of the
same trace x plane geometry, run over the same in-memory planes.  The contract is strict bit-identity: every
member must produce exactly the :class:`SimulationResult` an
independent :func:`simulate_tage_fast` run would — same misprediction
count, same class histogram, same controller trajectory — because the
sweep layer silently fuses eligible jobs and its cache/journal/resume
machinery never knows batching happened.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.sim.fast import (
    LockstepCell,
    compiled,
    simulate_tage_fast,
    simulate_tage_lockstep,
)
from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sweep.cache import ResultCache
from repro.sweep.executor import (
    LOCKSTEP_MAX_BATCH,
    execute_batch,
    execute_job,
    plan_lockstep,
    run_sweep,
)
from repro.sweep.grid import expand
from repro.sweep.spec import (
    EstimatorSpec,
    ExperimentSpec,
    LockstepBatch,
    PredictorSpec,
)

#: A shared-geometry ablation grid: every 16K variant maps onto the same
#: plane tensor (geometry depends only on table shapes, never on
#: automaton, seeds, policies or counter widths).
ABLATION = [
    ("base", lambda: TageConfig.small()),
    ("prob", lambda: TageConfig.small().with_probabilistic_automaton()),
    ("seeded", lambda: TageConfig.small(lfsr_seed=0xBEEF, alloc_seed=77,
                                        automaton="probabilistic")),
    ("ureset", lambda: TageConfig.small(u_reset_period=650)),
    ("first-free", lambda: TageConfig.small(allocation_policy="first-free")),
    ("wide", lambda: TageConfig.small(ctr_bits=4, u_bits=1)),
]


def _make_cell(make_config, *, estimator=True, adaptive=False, warmup=0):
    predictor = TagePredictor(make_config())
    est = TageConfidenceEstimator(predictor) if estimator or adaptive else None
    controller = (
        AdaptiveSaturationController(predictor, target_mkp=8.0)
        if adaptive else None
    )
    return LockstepCell(predictor, est, controller, warmup)


@pytest.mark.parametrize("provider", ["none", "cext"])
def test_lockstep_matches_independent_runs(serv1_trace, monkeypatch, provider):
    monkeypatch.setenv(compiled.PROVIDER_ENV, provider)
    if provider == "cext" and compiled.active_provider() is None:
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    make_batch = lambda: (
        [_make_cell(make) for _, make in ABLATION]
        + [
            _make_cell(ABLATION[1][1], adaptive=True, warmup=1000),
            _make_cell(ABLATION[2][1], adaptive=True, warmup=500),
            _make_cell(ABLATION[0][1], estimator=False),
            _make_cell(ABLATION[0][1], warmup=2000),
        ]
    )
    batched = simulate_tage_lockstep(serv1_trace, make_batch())
    for cell, fused in zip(make_batch(), batched):
        independent = simulate_tage_fast(
            serv1_trace, cell.predictor, cell.estimator, cell.controller,
            warmup_branches=cell.warmup_branches,
        )
        assert fused == independent
        if cell.estimator is not None:
            assert fused.classes.as_dict() == independent.classes.as_dict()
            assert fused.binary_confusion() == independent.binary_confusion()


def test_lockstep_rejects_mismatched_geometry(tiny_trace):
    cells = [
        LockstepCell(TagePredictor(TageConfig.small())),
        LockstepCell(TagePredictor(TageConfig.medium())),
    ]
    with pytest.raises(ValueError, match="plane geometry"):
        simulate_tage_lockstep(tiny_trace, cells)


def test_lockstep_empty_and_singleton(tiny_trace):
    assert simulate_tage_lockstep(tiny_trace, []) == []
    cell = _make_cell(ABLATION[0][1])
    (only,) = simulate_tage_lockstep(tiny_trace, [cell])
    assert only == simulate_tage_fast(tiny_trace, cell.predictor, cell.estimator)


# ---------------------------------------------------------------------------
# Sweep-layer planning and end-to-end identity.
# ---------------------------------------------------------------------------


def _grid_spec(name, *, sizes=("16K",), traces=("INT-1",), n_branches=4000,
               estimators=(EstimatorSpec.of("tage"),), backend="fast"):
    return ExperimentSpec(
        name=name,
        predictors=tuple(PredictorSpec.of("tage", size=s) for s in sizes),
        estimators=tuple(estimators),
        traces=traces,
        n_branches=n_branches,
        backend=backend,
    )


def test_plan_lockstep_groups_by_trace_and_geometry():
    spec = _grid_spec("plan/grid", sizes=("16K", "64K"),
                      traces=("INT-1", "MM-1"))
    jobs = list(enumerate(expand(spec).jobs))
    units = plan_lockstep(jobs)
    # 2 sizes x 2 traces with one estimator each: nothing shares both a
    # trace and a geometry, so no fusion happens.
    assert units == jobs


def test_plan_lockstep_fuses_shared_plane_cells():
    spec = ExperimentSpec(
        name="plan/ablation",
        predictors=(
            PredictorSpec.of("tage", size="16K"),
            PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
            PredictorSpec.of("tage", size="64K"),
        ),
        estimators=(EstimatorSpec.of("tage"),),
        traces=("INT-1",),
        n_branches=4000,
        backend="fast",
    )
    jobs = list(enumerate(expand(spec).jobs))
    units = plan_lockstep(jobs)
    batches = [u for _, u in units if isinstance(u, LockstepBatch)]
    singles = [u for _, u in units if not isinstance(u, LockstepBatch)]
    assert len(batches) == 1 and len(batches[0].members) == 2
    assert {j.predictor.size for j in singles} == {"64K"}
    # Order: the batch sits at its first member's position.
    assert [i for i, _ in units] == sorted(i for i, _ in units)


def test_plan_lockstep_respects_max_batch():
    spec = ExperimentSpec(
        name="plan/chunks",
        predictors=tuple(
            PredictorSpec.of("tage", size="16K", u_reset_period=512 + k)
            for k in range(LOCKSTEP_MAX_BATCH + 3)
        ),
        estimators=(EstimatorSpec.of("tage"),),
        traces=("INT-1",),
        n_branches=4000,
        backend="fast",
    )
    units = plan_lockstep(list(enumerate(expand(spec).jobs)))
    sizes = sorted(
        len(u.members) if isinstance(u, LockstepBatch) else 1
        for _, u in units
    )
    assert sizes == [3, LOCKSTEP_MAX_BATCH]


def test_plan_lockstep_skips_ineligible_jobs():
    baselines = ExperimentSpec(
        name="plan/baselines",
        predictors=(PredictorSpec.of("gshare"), PredictorSpec.of("perceptron")),
        estimators=(EstimatorSpec.of("jrs"), EstimatorSpec.of("self")),
        traces=("INT-1",),
        n_branches=4000,
        backend="fast",
    )
    jobs = list(enumerate(expand(baselines).jobs))
    # gshare x jrs and perceptron x {jrs, self}: no TAGE planes to share.
    assert len(jobs) == 3
    assert plan_lockstep(jobs) == jobs

    mixed = _grid_spec(
        "plan/mixed",
        estimators=(EstimatorSpec.of("tage"), EstimatorSpec.of("jrs")),
    )
    reference = mixed.with_options(backend="reference")
    jobs = list(enumerate(expand(reference).jobs))
    assert plan_lockstep(jobs) == jobs

    # One TAGE job per (trace, geometry): every group is a singleton.
    singles = _grid_spec("plan/singles", sizes=("16K", "64K"),
                         estimators=(EstimatorSpec.of("jrs"),))
    jobs = list(enumerate(expand(singles).jobs))
    assert plan_lockstep(jobs) == jobs


def test_plan_lockstep_fuses_binary_tage_jobs_by_geometry():
    spec = ExperimentSpec(
        name="plan/units",
        predictors=tuple(PredictorSpec.parse(token) for token in UNIT_PREDICTORS),
        estimators=tuple(EstimatorSpec.of(kind) for kind in UNIT_ESTIMATORS),
        traces=("INT-1", "MM-1"),
        n_branches=4000,
        backend="fast",
    )
    jobs = list(enumerate(expand(spec).jobs))
    units = plan_lockstep(jobs)
    # One unit per trace x geometry, holding both automata under all
    # three estimators.
    assert len(units) == 4
    for _, unit in units:
        assert isinstance(unit, LockstepBatch)
        assert len(unit.members) == 6
        assert len({job.trace for _, job in unit.members}) == 1
        assert len({job.predictor.size for _, job in unit.members}) == 1
        assert {job.estimator.kind for _, job in unit.members} == set(UNIT_ESTIMATORS)


#: The mixed-unit grid: both storage presets that share no planes, each
#: in the standard and probabilistic automaton, under every estimator a
#: TAGE unit admits.
UNIT_PREDICTORS = ("tage-16K", "tage-16K-prob", "tage-64K", "tage-64K-prob")
UNIT_ESTIMATORS = ("tage", "jrs", "ejrs")


def _assert_units_match_reference(jobs):
    """Every member of every fused unit ≡ that job run alone through
    :func:`execute_job` on the reference backend."""
    units = [unit for _, unit in plan_lockstep(list(enumerate(jobs)))]
    for unit in units:
        members = unit.members if isinstance(unit, LockstepBatch) else ((0, unit),)
        results = (execute_batch(unit) if isinstance(unit, LockstepBatch)
                   else (execute_job(unit),))
        for (_, job), fused in zip(members, results):
            alone = execute_job(replace(job, backend="reference"))
            assert fused.job == job
            assert fused.result == alone.result
            assert fused.binary == alone.binary
            assert fused.estimator_bits == alone.estimator_bits
    return units


@pytest.mark.parametrize("provider", ["none", "cext"])
def test_mixed_units_match_reference_jobs(monkeypatch, provider):
    monkeypatch.setenv(compiled.PROVIDER_ENV, provider)
    if provider == "cext" and compiled.active_provider() is None:
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    spec = ExperimentSpec(
        name="units/mixed",
        predictors=tuple(PredictorSpec.parse(token) for token in UNIT_PREDICTORS),
        estimators=tuple(EstimatorSpec.of(kind) for kind in UNIT_ESTIMATORS),
        traces=("SERV-1",),
        n_branches=3000,
        warmup_branches=700,
        seed=11,
        backend="fast",
    )
    units = _assert_units_match_reference(expand(spec).jobs)
    assert [len(unit.members) for unit in units] == [6, 6]


@pytest.mark.parametrize("provider", ["none", "cext"])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    predictors=st.lists(st.sampled_from(UNIT_PREDICTORS + ("gshare",)),
                        min_size=1, max_size=4, unique=True),
    estimators=st.lists(st.sampled_from(UNIT_ESTIMATORS), min_size=1,
                        max_size=3, unique=True),
    traces=st.lists(st.sampled_from(("INT-1", "FP-1", "MM-1")), min_size=1,
                    max_size=2, unique=True),
    n_branches=st.integers(200, 900),
    warmup=st.integers(0, 300),
    seed=st.one_of(st.none(), st.integers(0, 2**16)),
)
def test_random_grid_units_match_reference_jobs(
    monkeypatch, provider, predictors, estimators, traces, n_branches,
    warmup, seed,
):
    monkeypatch.setenv(compiled.PROVIDER_ENV, provider)
    if provider == "cext" and compiled.active_provider() is None:
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    grid = ExperimentSpec(
        name="units/random",
        predictors=tuple(PredictorSpec.parse(token) for token in predictors),
        estimators=tuple(EstimatorSpec.of(kind) for kind in estimators),
        traces=tuple(traces),
        n_branches=n_branches,
        warmup_branches=warmup,
        seed=seed,
        backend="fast",
    )
    try:
        jobs = expand(grid).jobs
    except ValueError:
        return  # gshare x tage only: nothing compatible to run
    _assert_units_match_reference(jobs)


def test_fault_plan_disables_fusion():
    """Fault plans key on per-job indices, so a fault-injected run
    dispatches every job alone; the results stay bit-identical."""
    spec = ExperimentSpec(
        name="lockstep/faults",
        predictors=(
            PredictorSpec.of("tage", size="16K"),
            PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
        ),
        estimators=(EstimatorSpec.of("tage"),),
        traces=("INT-1",),
        n_branches=4000,
        backend="fast",
    )
    clean_lines, faulty_lines = [], []
    clean = run_sweep(spec, workers=1, progress=clean_lines.append, faults="")
    faulty = run_sweep(spec, workers=1, progress=faulty_lines.append,
                       faults="flaky@1")
    assert any(line.startswith("lockstep: fused 2 job(s)") for line in clean_lines)
    assert not any(line.startswith("lockstep:") for line in faulty_lines)
    assert (clean.n_retries, faulty.n_retries) == (0, 1)
    assert [a.result for a in clean.table] == [b.result for b in faulty.table]


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pool"])
def test_run_sweep_lockstep_is_bit_identical(tmp_path, workers):
    """The fused sweep ≡ each of its jobs run alone through
    :func:`execute_job`."""
    spec = ExperimentSpec(
        name="lockstep/e2e",
        predictors=(
            PredictorSpec.of("tage", size="16K"),
            PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
            PredictorSpec.of("tage", size="16K", u_reset_period=700),
        ),
        estimators=tuple(EstimatorSpec.of(kind) for kind in UNIT_ESTIMATORS),
        traces=("INT-1", "SERV-1"),
        n_branches=4000,
        seed=1,
        backend="fast",
    )
    fused = run_sweep(spec, workers=workers, cache=ResultCache(tmp_path))
    assert fused.n_executed == len(fused.table) == 18
    for a, job in zip(fused.table, expand(spec).jobs):
        b = execute_job(job)
        assert a.job == job
        assert a.result == b.result
        assert a.binary == b.binary
        assert a.estimator_bits == b.estimator_bits


def test_run_sweep_lockstep_results_hit_cache(tmp_path):
    spec = ExperimentSpec(
        name="lockstep/cache",
        predictors=(
            PredictorSpec.of("tage", size="16K"),
            PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
        ),
        estimators=(EstimatorSpec.of("tage"),),
        traces=("INT-1",),
        n_branches=4000,
        backend="fast",
    )
    cache = ResultCache(tmp_path)
    first = run_sweep(spec, workers=1, cache=cache)
    assert first.n_executed == 2 and first.n_cached == 0
    again = run_sweep(spec, workers=1, cache=cache)
    assert again.n_executed == 0 and again.n_cached == 2
    for a, b in zip(first.table, again.table):
        assert a.result == b.result and a.binary == b.binary
