"""Shared per-trace streams are invisible in the results.

The fast backend computes each trace-derived stream once per
materialized trace — the JRS/eJRS base index of one table geometry,
one predictor configuration's prediction stream, a sum-based
predictor's (predictions, self-confidence) pair — and every later cell
of that trace reads it (:meth:`repro.sim.fast.arrays.TraceArrays.derived`).
A lockstep TAGE×``tage`` cell without a §6.2 controller also publishes
its predictions for a TAGE×``jrs``/``ejrs`` member of its unit.

The contract: every cell of a grid run unit by unit, in one process,
over those shared streams equals its own reference-backend run — on
both kernel legs (``REPRO_COMPILED_PROVIDER=none`` and ``cext``), for
unseeded and seeded grids and nonzero warmups, and when an adaptive
cell shares a unit with a binary cell of the same TAGE configuration
(whose stream the controller changes, so it must not be shared).
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.sim.fast import arrays as fast_arrays
from repro.sim.fast import compiled
from repro.sim.fast.arrays import TraceArrays
from repro.sim.fast.vectorized import vectorized_predictions
from repro.sim.cells import build_cell
from repro.sim.runner import get_trace
from repro.sweep.executor import (
    execute_job,
    execute_work,
    plan_lockstep,
)
from repro.sweep.grid import expand
from repro.sweep.spec import (
    EstimatorSpec,
    ExperimentSpec,
    LockstepBatch,
    PredictorSpec,
)

TAGE_PRESETS = ("tage-16K", "tage-64K", "tage-16K-prob", "tage-64K-prob")
COUNTER_PREDICTORS = ("bimodal", "gshare", "local")
SUM_PREDICTORS = ("perceptron", "ogehl")
ESTIMATORS = ("tage", "jrs", "ejrs", "self")
BRANCHES = 1_500
#: Long enough for the §6.2 controller (4096 high-confidence
#: predictions per decision) to move the saturation probability far
#: enough that the prediction stream changes.
ADAPTIVE_BRANCHES = 40_000

#: (label, trace, seed, warmup) of the curated grids.
GRIDS = [
    ("unseeded", "INT-1", None, 0),
    ("unseeded-warm", "SERV-4", None, 400),
    ("seeded-warm", "FP-2", 7, 300),
]


@pytest.fixture(params=("none", "cext"))
def kernel_leg(request, monkeypatch):
    """Pin one kernel leg and start from no materialized trace, so no
    stream computed on the other leg is served to this one."""
    leg = request.param
    monkeypatch.setenv(compiled.PROVIDER_ENV, leg)
    if leg == "cext" and compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    monkeypatch.setattr(fast_arrays, "_LAST_MATERIALIZED", None)
    return leg


def _spec(name, predictors, estimators, trace, seed, warmup, *,
          n_branches=BRANCHES, adaptive=False, target_mkp=10.0):
    return ExperimentSpec(
        name=name,
        predictors=tuple(PredictorSpec.parse(token) for token in predictors),
        estimators=tuple(EstimatorSpec.of(kind) for kind in estimators),
        traces=(trace,),
        n_branches=n_branches,
        warmup_branches=warmup,
        adaptive=adaptive,
        target_mkp=target_mkp,
        seed=seed,
        backend="fast",
    )


def _grid_jobs(trace, seed, warmup):
    spec = _spec("shared-streams", TAGE_PRESETS + COUNTER_PREDICTORS
                 + SUM_PREDICTORS, ESTIMATORS, trace, seed, warmup)
    return expand(spec).jobs


def _identity(job_result) -> tuple:
    """A job's results, without its wall-clock ``elapsed``."""
    result = job_result.result
    classes = result.classes.as_dict() if result.classes is not None else None
    return (result, classes, job_result.binary, job_result.estimator_bits)


def _run_shared(jobs) -> list[tuple]:
    """Every job as the sweep runs it: lockstep-planned units, one after
    another in this process, over one materialized trace."""
    results = {}
    for index, unit in plan_lockstep(list(enumerate(jobs))):
        outcome = execute_work(unit)
        if isinstance(unit, LockstepBatch):
            for (member, _), member_result in zip(unit.members, outcome):
                results[member] = member_result
        else:
            results[index] = outcome
    return [_identity(results[index]) for index in range(len(jobs))]


@functools.lru_cache(maxsize=None)
def _reference(jobs) -> tuple[tuple, ...]:
    """Each job's reference-backend results."""
    return tuple(
        _identity(execute_job(replace(job, backend="reference")))
        for job in jobs
    )


def _assert_matches_reference(jobs):
    shared = _run_shared(jobs)
    reference = _reference(tuple(jobs))
    mismatched = [job for job, ours, theirs in zip(jobs, shared, reference)
                  if ours != theirs]
    assert not mismatched, mismatched


def test_grid_shape():
    jobs = _grid_jobs("INT-1", None, 0)
    units = [unit for _, unit in plan_lockstep(list(enumerate(jobs)))]
    # 4 TAGE presets x tage/jrs/ejrs fuse into one unit per geometry.
    assert sum(isinstance(unit, LockstepBatch) for unit in units) == 2
    assert len(jobs) == 4 * 3 + 3 * 2 + 2 * 3


@pytest.mark.parametrize("label,trace,seed,warmup", GRIDS,
                         ids=[label for label, *_ in GRIDS])
def test_shared_grid_matches_reference(kernel_leg, label, trace, seed, warmup):
    _assert_matches_reference(_grid_jobs(trace, seed, warmup))


def test_adaptive_cell_does_not_share_its_stream(kernel_leg):
    """An adaptive ``tage-16K`` cell runs the probabilistic automaton —
    the same TAGE configuration as ``tage-16K-prob`` — but its §6.2
    controller moves the saturation probability, so the ``jrs`` member
    of its unit must not read its predictions."""
    adaptive = expand(_spec("adaptive", ("tage-16K",), ("tage",), "INT-1",
                            None, 200, n_branches=ADAPTIVE_BRANCHES,
                            adaptive=True, target_mkp=200.0)).jobs
    binary = expand(_spec("binary", ("tage-16K-prob",), ("jrs", "ejrs"),
                          "INT-1", None, 200,
                          n_branches=ADAPTIVE_BRANCHES)).jobs
    jobs = adaptive + binary
    units = [unit for _, unit in plan_lockstep(list(enumerate(jobs)))]
    assert len(units) == 1 and isinstance(units[0], LockstepBatch)
    _assert_matches_reference(jobs)
    # The controller moved the saturation probability far enough to
    # change the stream: sharing it would have been visible.
    controlled, jrs, _ = _reference(tuple(jobs))
    assert controlled[0].final_sat_prob_log2 != 7
    assert controlled[0].mispredictions != jrs[0].mispredictions


#: Two configurations per non-TAGE kind, each pair differing in exactly
#: one field the kind's fast kernel reads: sharing a stream between
#: them would mean that field is missing from its stream key.
CONFIG_PAIRS = [
    ("bimodal", {}, {"counter_bits": 1}),
    ("bimodal", {}, {"log_entries": 6}),
    ("gshare", {}, {"history_length": 6}),
    ("gshare", {}, {"log_entries": 8}),
    ("local", {}, {"shared_pht": False}),
    ("local", {}, {"log_histories": 4}),
    ("local", {"shared_pht": False}, {"shared_pht": False, "log_pht": 8}),
    ("local", {}, {"history_length": 6}),
    ("perceptron", {}, {"weight_bits": 4}),
    ("perceptron", {}, {"history_length": 12}),
    ("perceptron", {}, {"log_entries": 4}),
    ("ogehl", {}, {"max_history": 40}),
    ("ogehl", {}, {"counter_bits": 3}),
    ("ogehl", {}, {"log_entries": 6}),
    ("ogehl", {}, {"n_tables": 6}),
]


@pytest.mark.parametrize("kind,base,variant", CONFIG_PAIRS,
                         ids=[f"{kind}-{next(reversed(variant))}"
                              for kind, _, variant in CONFIG_PAIRS])
def test_configs_of_one_kind_do_not_share_streams(kernel_leg, kind, base,
                                                  variant):
    """Two configurations of one predictor kind on one trace, each under
    ``jrs``, ``ejrs`` (over two JRS geometries) and, for the sum-based
    kinds, ``self``: every cell equals its reference run, and the pair's
    reference results differ, so a shared stream would show."""
    spec = ExperimentSpec(
        name="config-pairs",
        predictors=(PredictorSpec.of(kind, **base),
                    PredictorSpec.of(kind, **variant)),
        estimators=(EstimatorSpec.of("jrs"), EstimatorSpec.of("ejrs"),
                    EstimatorSpec.of("jrs", history_length=6, log_entries=10),
                    EstimatorSpec.of("self")),
        traces=("SERV-4",),
        n_branches=BRANCHES,
        warmup_branches=200,
        backend="fast",
    )
    jobs = expand(spec).jobs
    _assert_matches_reference(jobs)
    # Each configuration's stream, built on its own uncached arrays.
    arrays = TraceArrays.from_trace(get_trace("SERV-4", BRANCHES))
    first, second = (
        vectorized_predictions(
            build_cell(predictor, None).predictor,
            TraceArrays(arrays.name, arrays.pcs, arrays.takens),
        )
        for predictor in spec.predictors
    )
    assert not np.array_equal(first, second)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    predictors=st.lists(
        st.sampled_from(TAGE_PRESETS + COUNTER_PREDICTORS + SUM_PREDICTORS),
        min_size=1, max_size=4, unique=True,
    ),
    estimators=st.lists(st.sampled_from(ESTIMATORS), min_size=1,
                        max_size=4, unique=True),
    trace=st.sampled_from(("INT-1", "FP-2", "MM-3", "SERV-4")),
    seed=st.one_of(st.none(), st.integers(0, 2**16)),
    n_branches=st.integers(200, 700),
    warmup_fraction=st.sampled_from((0, 0.25, 0.5)),
)
def test_random_grids_match_reference(kernel_leg, predictors, estimators,
                                      trace, seed, n_branches,
                                      warmup_fraction):
    spec = _spec("random", tuple(predictors), tuple(estimators), trace, seed,
                 int(n_branches * warmup_fraction), n_branches=n_branches)
    try:
        jobs = expand(spec).jobs
    except ValueError:
        return  # no compatible (predictor, estimator) pair drawn
    _assert_matches_reference(jobs)
