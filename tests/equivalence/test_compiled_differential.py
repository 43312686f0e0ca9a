"""Kernel differentials: the pure and C translations, bit for bit.

The compiled layer (:mod:`repro.sim.fast.compiled`) may run the TAGE
and O-GEHL inner loops through the embedded C translation; both legs —
``REPRO_COMPILED_PROVIDER=none`` (the pure reference kernels) and
``cext`` — must reproduce the reference engine exactly: saturating
arithmetic, the LFSR probabilistic-automaton draws, allocation
xorshift, the §6.2 in-kernel controller, warmup splits and class
accounting included.  The ``cext`` leg skips when no C compiler is on
PATH, so the suite passes warning-free on any box.
"""

from __future__ import annotations

import warnings

import pytest

np = pytest.importorskip("numpy")

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import FastBackendFallbackWarning
from repro.sim.engine import simulate, simulate_binary
from repro.sim.fast import compiled, simulate_binary_fast, simulate_tage_fast

#: Kernel-relevant configuration corners (a condensed cut of the main
#: TAGE differential grid: every automaton/seed/width/policy family).
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

#: The two kernel legs; ``cext`` skips when the C build is unavailable.
KERNEL_LEGS = ("none", "cext")


@pytest.fixture(params=KERNEL_LEGS)
def kernel_leg(request, monkeypatch):
    """Pin one kernel for the duration of a test.

    The provider resolution is memoized per ``$REPRO_COMPILED_PROVIDER``
    value, so flipping the env var between tests is cheap and never
    rebuilds the shared library.
    """
    leg = request.param
    monkeypatch.setenv(compiled.PROVIDER_ENV, leg)
    if leg == "cext" and compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    return leg


def test_compiled_leg_is_exercised():
    """The suite must not silently degrade to pure-only coverage: the
    C translation needs nothing but a C compiler, which CI always has."""
    if compiled.active_provider() is None:
        pytest.skip(f"no compiled provider on this box "
                    f"({compiled.provider_unavailable_reason()})")
    assert compiled.active_provider() == "cext"


@pytest.mark.parametrize("label,make_config", CONFIGS, ids=[l for l, _ in CONFIGS])
def test_tage_kernel_matches_reference(kernel_leg, int1_trace, label, make_config):
    reference = simulate(int1_trace, TagePredictor(make_config()))
    fast = simulate_tage_fast(int1_trace, TagePredictor(make_config()))
    assert fast == reference


@pytest.mark.parametrize("label,make_config", CONFIGS[:4] + CONFIGS[-1:],
                         ids=[l for l, _ in CONFIGS[:4] + CONFIGS[-1:]])
def test_observation_run_matches_reference(kernel_leg, twolf_trace, label,
                                           make_config):
    warmup = len(twolf_trace) // 4

    def run(engine):
        predictor = TagePredictor(make_config())
        estimator = TageConfidenceEstimator(predictor)
        return engine(twolf_trace, predictor, estimator, warmup_branches=warmup)

    reference = run(simulate)
    fast = run(simulate_tage_fast)
    assert fast == reference
    assert fast.classes.as_dict() == reference.classes.as_dict()
    assert fast.binary_confusion() == reference.binary_confusion()


def test_adaptive_controller_matches_reference(kernel_leg, int1_trace):
    def run(engine):
        predictor = TagePredictor(
            TageConfig.small().with_probabilistic_automaton()
        )
        estimator = TageConfidenceEstimator(predictor)
        controller = AdaptiveSaturationController(predictor, target_mkp=8.0)
        return engine(int1_trace, predictor, estimator, controller=controller,
                      warmup_branches=1000)

    reference = run(simulate)
    fast = run(simulate_tage_fast)
    assert fast == reference
    assert fast.final_sat_prob_log2 == reference.final_sat_prob_log2


def test_ogehl_kernel_matches_reference(kernel_leg, int1_trace):
    def run(engine):
        predictor = OgehlPredictor()
        return engine(int1_trace, predictor, SelfConfidenceEstimator(predictor))

    assert run(simulate_binary_fast) == run(simulate_binary)


def test_pinned_pure_runs_silently(monkeypatch, tiny_trace):
    """``none`` resolves no C kernel and runs pure with no warning."""
    monkeypatch.setenv(compiled.PROVIDER_ENV, "none")
    compiled._reset_missing_warning()
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        assert compiled.resolve_tage_kernel() is None
        assert compiled.resolve_ogehl_kernel() is None
        result = simulate_tage_fast(tiny_trace, TagePredictor(TageConfig.small()))
    assert result == simulate(tiny_trace, TagePredictor(TageConfig.small()))
    assert "none" in compiled.provider_unavailable_reason()


def test_prediction_streams_match_across_legs(int1_trace, monkeypatch):
    """The apps-layer per-branch streams are kernel-invariant too."""
    from repro.sim.fast import TraceArrays, tage_fast_predictions

    arrays = TraceArrays.from_trace(int1_trace)

    def run(leg):
        monkeypatch.setenv(compiled.PROVIDER_ENV, leg)
        predictor = TagePredictor(TageConfig.small())
        return tage_fast_predictions(arrays, predictor)

    pure = run("none")
    c = run("cext")
    if compiled.active_provider() is None:
        pytest.skip("no compiled provider on this box")
    assert np.array_equal(pure, c)
