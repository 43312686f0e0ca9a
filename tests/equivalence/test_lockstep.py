"""Lockstep batching equivalence: fused passes are invisible.

A lockstep batch runs many ablation cells through one kernel pass over
one set of trace planes.  The contract is strict bit-identity: every
member must produce exactly the :class:`SimulationResult` an
independent :func:`simulate_tage_fast` run would — same misprediction
count, same class histogram, same controller trajectory — because the
sweep layer silently fuses eligible jobs and its cache/journal/resume
machinery never knows batching happened.
"""

from __future__ import annotations

import pytest

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
    LOCKSTEP_ENV,
    LOCKSTEP_MAX_BATCH,
    _lockstep_enabled,
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
    mixed = _grid_spec(
        "plan/mixed",
        estimators=(EstimatorSpec.of("tage"), EstimatorSpec.of("jrs")),
    )
    jobs = list(enumerate(expand(mixed).jobs))
    units = plan_lockstep(jobs)
    # A JRS cell is binary-protocol and can't join a TAGE lockstep pass;
    # with only one eligible cell left there is nothing to fuse.
    assert units == jobs

    reference = _grid_spec("plan/reference", backend="reference")
    jobs = list(enumerate(expand(reference).jobs))
    assert plan_lockstep(jobs) == jobs


def test_lockstep_enabled_gating(monkeypatch):
    monkeypatch.delenv(LOCKSTEP_ENV, raising=False)
    assert _lockstep_enabled(None, "") is True
    assert _lockstep_enabled(False, "") is False
    assert _lockstep_enabled(None, "kill@0") is False  # faults pin indices
    assert _lockstep_enabled(True, "kill@0") is False
    monkeypatch.setenv(LOCKSTEP_ENV, "off")
    assert _lockstep_enabled(None, "") is False
    assert _lockstep_enabled(True, "") is True  # explicit arg beats env


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pool"])
def test_run_sweep_lockstep_is_bit_identical(tmp_path, workers):
    spec = ExperimentSpec(
        name="lockstep/e2e",
        predictors=(
            PredictorSpec.of("tage", size="16K"),
            PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
            PredictorSpec.of("tage", size="16K", u_reset_period=700),
        ),
        estimators=(EstimatorSpec.of("tage"),),
        traces=("INT-1", "SERV-1"),
        n_branches=4000,
        seed=1,
        backend="fast",
    )
    fused = run_sweep(spec, workers=workers,
                      cache=ResultCache(tmp_path / "on"), lockstep=True)
    independent = run_sweep(spec, workers=workers,
                            cache=ResultCache(tmp_path / "off"), lockstep=False)
    assert len(fused.table) == len(independent.table) == 6
    for a, b in zip(fused.table, independent.table):
        assert a.job.spec_hash() == b.job.spec_hash()
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
    first = run_sweep(spec, workers=1, cache=cache, lockstep=True)
    assert first.n_executed == 2 and first.n_cached == 0
    again = run_sweep(spec, workers=1, cache=cache, lockstep=True)
    assert again.n_executed == 0 and again.n_cached == 2
    for a, b in zip(first.table, again.table):
        assert a.result == b.result and a.binary == b.binary
