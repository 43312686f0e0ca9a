"""Backend differentials for the TAGE kernel over a curated grid.

Crosses the paper's presets and every kernel-relevant configuration axis
— counter automaton, u-reset cadence, allocation policy, USE_ALT_ON_NA,
the L-TAGE alternate-update refinement, counter widths — with the
estimator-free, multi-class-observation and binary-JRS protocols over
traces from three behaviour families, asserting the plane-fed kernel
reproduces the reference engine exactly (counts, class breakdowns,
confusion matrices, storage budgets).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.engine import simulate, simulate_binary
from repro.sim.fast import (
    PlaneCache,
    TraceArrays,
    plane_geometry,
    simulate_binary_fast,
    simulate_fast,
    simulate_tage_fast,
    tage,
)

#: (label, config factory) — the kernel-relevant configuration corners.
CONFIGS = [
    ("16K", lambda: TageConfig.small()),
    ("64K", lambda: TageConfig.medium()),
    ("16K-prob", lambda: TageConfig.small().with_probabilistic_automaton()),
    ("16K-prob1", lambda: TageConfig.small().with_probabilistic_automaton(0)),
    ("16K-ureset", lambda: TageConfig.small(u_reset_period=700)),
    ("16K-first-free", lambda: TageConfig.small(allocation_policy="first-free")),
    ("16K-no-alt", lambda: TageConfig.small(use_alt_on_na_enabled=False)),
    ("16K-ltage-alt", lambda: TageConfig.small(update_alt_when_u_zero=True,
                                               u_reset_period=900)),
    ("16K-wide", lambda: TageConfig.small(ctr_bits=4, u_bits=1)),
    ("16K-seeded", lambda: TageConfig.small(lfsr_seed=0xC0FFEE, alloc_seed=0x1234,
                                            automaton="probabilistic",
                                            sat_prob_log2=3)),
]

TRACE_FIXTURES = ("int1_trace", "serv1_trace", "twolf_trace")


@pytest.fixture(params=TRACE_FIXTURES)
def trace(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("label,make_config", CONFIGS, ids=[l for l, _ in CONFIGS])
def test_plain_run_is_bit_identical(trace, label, make_config):
    reference = simulate(trace, TagePredictor(make_config()))
    fast = simulate_fast(trace, TagePredictor(make_config()))
    assert fast == reference
    assert fast.mpki == reference.mpki
    assert fast.storage_bits == reference.storage_bits


@pytest.mark.parametrize("label,make_config", CONFIGS, ids=[l for l, _ in CONFIGS])
def test_observation_run_is_bit_identical(trace, label, make_config):
    warmup = len(trace) // 4

    def run(engine):
        predictor = TagePredictor(make_config())
        estimator = TageConfidenceEstimator(predictor)
        return engine(trace, predictor, estimator, warmup_branches=warmup)

    reference = run(simulate)
    fast = run(simulate_fast)
    assert fast == reference
    assert fast.classes is not None
    assert fast.classes.as_dict() == reference.classes.as_dict()
    assert fast.binary_confusion() == reference.binary_confusion()


@pytest.mark.parametrize("window", [0, 1, 8, 40])
def test_bim_miss_window_variants(int1_trace, window):
    def run(engine):
        predictor = TagePredictor(TageConfig.small())
        estimator = TageConfidenceEstimator(predictor, bim_miss_window=window)
        return engine(int1_trace, predictor, estimator)

    assert run(simulate_fast) == run(simulate)


@pytest.mark.parametrize("make_estimator", [JrsEstimator, EnhancedJrsEstimator],
                         ids=["jrs", "ejrs"])
def test_binary_run_with_tage_predictor(trace, make_estimator):
    warmup = len(trace) // 4
    reference = simulate_binary(
        trace, TagePredictor(TageConfig.small()), make_estimator(),
        warmup_branches=warmup,
    )
    fast = simulate_binary_fast(
        trace, TagePredictor(TageConfig.small()), make_estimator(),
        warmup_branches=warmup,
    )
    assert fast == reference


@pytest.mark.parametrize("warmup", [0, 1, 3999, 8000])
def test_warmup_split_matches_reference(int1_trace, warmup):
    def run(engine):
        predictor = TagePredictor(TageConfig.small())
        return engine(int1_trace, predictor, TageConfidenceEstimator(predictor),
                      warmup_branches=warmup)

    assert run(simulate_fast) == run(simulate)


def test_materialized_planes_do_not_change_results(int1_trace, tmp_path,
                                                   monkeypatch):
    """Rows a :class:`PlaneCache` serves — computed cold, then a warm
    read-only memmap — run through the kernel to the same result as the
    in-memory chunk stream."""
    def run():
        predictor = TagePredictor(TageConfig.small())
        return simulate_tage_fast(
            int1_trace, predictor, TageConfidenceEstimator(predictor)
        )

    in_memory = run()
    cache = PlaneCache(tmp_path)
    monkeypatch.setattr(tage, "_plane_chunks", lambda arrays, geometry: iter(
        [(0, cache.load_or_compute(arrays, geometry).data[1:])]
    ))
    cold = run()
    warm = run()
    assert cold == in_memory
    assert warm == in_memory
    assert (cache.hits, cache.misses) == (1, 1)
    served = cache.load(TraceArrays.from_trace(int1_trace),
                        plane_geometry(TageConfig.small()))
    assert isinstance(served.data, np.memmap)


def test_fast_backend_leaves_components_untrained(tiny_trace):
    """The fast path only reads configuration: the instances keep their
    power-on state (documented contract of ``backend='fast'``)."""
    predictor = TagePredictor(TageConfig.small())
    estimator = TageConfidenceEstimator(predictor)
    simulate_fast(tiny_trace, predictor, estimator)
    assert all(ctr == 0 for component in predictor.components for ctr in component.ctr)
    assert all(tag == 0 for component in predictor.components for tag in component.tag)
    assert predictor.bimodal.counters == [2] * len(predictor.bimodal.counters)
    assert predictor.use_alt_on_na == 0
    assert predictor._pending_pc is None
    assert estimator.bim_predictions_since_miss == estimator.bim_miss_window
