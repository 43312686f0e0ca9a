"""Fallback semantics: unsupported configurations warn and stay correct.

``backend="fast"`` is a request, not a contract: cells the fast engine
cannot reproduce bit-exactly (>62-bit histories, any subclass of a
supported component) must fall back to the reference engine with a
:class:`FastBackendFallbackWarning` — and produce exactly the reference
results.  Everything the stock model zoo can express — TAGE with the
observation estimator and the §6.2 adaptive controller, the
perceptron/O-GEHL self-confidence cells, the local predictor — is
inside the fast family and must *not* warn.
"""

from __future__ import annotations

import warnings

import pytest

np = pytest.importorskip("numpy")

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.jrs import JrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import (
    Capability,
    Cell,
    FastBackendFallbackWarning,
    FastBackendUnsupported,
    get_backend,
)
from repro.sim.engine import simulate, simulate_binary
from repro.sim.fast import simulate_binary_fast, simulate_fast
from repro.sim.runner import build_predictor, run_trace
from repro.sweep.executor import execute_job
from repro.sweep.spec import EstimatorSpec, JobSpec, PredictorSpec


class _SubclassedBimodal(BimodalPredictor):
    """A subclass must NOT be treated as vectorizable (it may override
    behaviour the fast path would silently ignore)."""


class _SubclassedTage(TagePredictor):
    """Same exact-type rule for the TAGE kernel."""


class _SubclassedPerceptron(PerceptronPredictor):
    """Same exact-type rule for the dot-product kernels."""


class _SubclassedController(AdaptiveSaturationController):
    """Same exact-type rule for the in-kernel §6.2 feedback loop."""


def _capability(predictor, estimator=None, controller=None, binary=False):
    return get_backend("fast").capability(
        Cell(predictor=predictor, estimator=estimator, controller=controller,
             binary=binary)
    )


def test_capability_predictor_truth_table():
    assert _capability(BimodalPredictor())
    assert _capability(GsharePredictor())
    assert _capability(build_predictor("16K"))
    assert _capability(PerceptronPredictor())
    assert _capability(OgehlPredictor())
    assert _capability(LocalHistoryPredictor())
    assert not _capability(_SubclassedBimodal())
    assert not _capability(_SubclassedPerceptron())
    assert not _capability(_SubclassedTage(build_predictor("16K").config))


def test_capability_estimator_truth_table():
    gshare = GsharePredictor()
    assert _capability(gshare, JrsEstimator(), binary=True)
    tage = build_predictor("16K")
    assert _capability(tage, TageConfidenceEstimator(tage))
    perceptron = PerceptronPredictor()
    assert _capability(
        perceptron, SelfConfidenceEstimator(perceptron), binary=True
    )

    class _SubclassedSelf(SelfConfidenceEstimator):
        pass

    ogehl = OgehlPredictor()
    assert not _capability(ogehl, _SubclassedSelf(ogehl), binary=True)

    oversized = _capability(
        GsharePredictor(), JrsEstimator(history_length=80), binary=True
    )
    assert not oversized
    assert "window width" in oversized.reason


def test_capability_refusal_carries_reason_and_fallback():
    capability = _capability(_SubclassedBimodal())
    assert isinstance(capability, Capability)
    assert capability.backend == "fast"
    assert not capability.supported
    assert capability.fallback == "reference"
    assert "not vectorizable" in capability.reason


def test_capability_rejects_binary_with_controller():
    predictor = build_predictor("16K", automaton="probabilistic")
    capability = _capability(
        predictor,
        JrsEstimator(),
        controller=AdaptiveSaturationController(predictor),
        binary=True,
    )
    assert not capability
    assert "binary" in capability.reason


def test_capability_reports_lockstep_for_tage_accuracy_cells():
    tage = build_predictor("16K")
    assert _capability(tage, TageConfidenceEstimator(tage)).lockstep
    assert not _capability(build_predictor("16K"), JrsEstimator(),
                           binary=True).lockstep
    assert not _capability(OgehlPredictor()).lockstep


@pytest.mark.parametrize("provider", ["none", "cext"])
def test_capability_compiled_flag_tracks_provider(monkeypatch, provider):
    from repro.sim.fast import compiled

    monkeypatch.setenv(compiled.PROVIDER_ENV, provider)
    if provider == "cext" and compiled.active_provider() is None:
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    tage = build_predictor("16K")
    capability = _capability(tage, TageConfidenceEstimator(tage))
    assert capability.compiled == (provider == "cext")
    assert capability.compiled_provider == compiled.active_provider()
    assert not _capability(GsharePredictor()).compiled


def test_reference_backend_supports_everything():
    capability = get_backend("reference").capability(
        Cell(predictor=_SubclassedBimodal())
    )
    assert capability
    assert capability.fallback is None


def test_fast_engine_raises_for_subclassed_tage(tiny_trace):
    with pytest.raises(FastBackendUnsupported, match="not vectorizable"):
        simulate_fast(tiny_trace, _SubclassedTage(build_predictor("16K").config))


def test_fast_engine_raises_for_multiclass_estimator_without_tage(tiny_trace):
    predictor = build_predictor("16K")
    estimator = TageConfidenceEstimator(predictor)
    with pytest.raises(FastBackendUnsupported, match="observation estimator"):
        simulate_fast(tiny_trace, BimodalPredictor(), estimator)


def test_fast_engine_raises_for_oversized_path_history(tiny_trace):
    predictor = build_predictor("16K", path_history_bits=70)
    with pytest.raises(FastBackendUnsupported, match="path_history_bits"):
        simulate_fast(tiny_trace, predictor)
    reference = simulate(tiny_trace, build_predictor("16K", path_history_bits=70))
    with pytest.warns(FastBackendFallbackWarning):
        fallback = simulate(
            tiny_trace, build_predictor("16K", path_history_bits=70), backend="fast"
        )
    assert fallback == reference


def test_wide_path_register_with_short_histories_stays_fast(tiny_trace):
    """The bound is the *effective* per-component window
    min(path_history_bits, history_length): a >62-bit register over
    short histories still packs into an int64 lane and must not be
    downgraded to the reference engine."""
    def make():
        return build_predictor(
            "16K", min_history=2, max_history=50, path_history_bits=70
        )

    reference = simulate(tiny_trace, make())
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        fast = simulate(tiny_trace, make(), backend="fast")
    assert fast == reference


def test_fast_engine_raises_for_subclassed_controller(tiny_trace):
    predictor = build_predictor("16K", automaton="probabilistic")
    estimator = TageConfidenceEstimator(predictor)
    controller = _SubclassedController(predictor)
    with pytest.raises(FastBackendUnsupported, match="adaptive saturation controller"):
        simulate_fast(tiny_trace, predictor, estimator, controller)


def test_fast_engine_raises_for_controller_predictor_mismatch(tiny_trace):
    """A controller steering a different predictor instance than the
    simulated one cannot be folded into the kernel."""
    simulated = build_predictor("16K", automaton="probabilistic")
    other = build_predictor("16K", automaton="probabilistic")
    controller = AdaptiveSaturationController(other)
    estimator = TageConfidenceEstimator(simulated)
    with pytest.raises(FastBackendUnsupported, match="different predictor"):
        simulate_fast(tiny_trace, simulated, estimator, controller)


def test_fast_engine_raises_for_oversized_history(tiny_trace):
    """Histories beyond the int64 window width fall back (the reference
    engine's Python bigints have no such bound)."""
    with pytest.raises(FastBackendUnsupported, match="window width"):
        simulate_fast(tiny_trace, GsharePredictor(history_length=70))
    with pytest.raises(FastBackendUnsupported, match="window width"):
        simulate_fast(tiny_trace, PerceptronPredictor(history_length=70))
    with pytest.raises(FastBackendUnsupported, match="window width"):
        simulate_fast(
            tiny_trace,
            LocalHistoryPredictor(history_length=70, log_pht=12, shared_pht=False),
        )
    with pytest.raises(FastBackendUnsupported, match="window width"):
        simulate_binary_fast(
            tiny_trace, GsharePredictor(), JrsEstimator(history_length=80)
        )
    reference = simulate(tiny_trace, GsharePredictor(history_length=70))
    with pytest.warns(FastBackendFallbackWarning):
        fallback = simulate(
            tiny_trace, GsharePredictor(history_length=70), backend="fast"
        )
    assert fallback == reference


def test_oversized_numeric_widths_fall_back_instead_of_overflowing(tiny_trace):
    """Regression: widths beyond what int64 tables can represent must
    take the warn-and-fall-back path, not crash with OverflowError."""
    def run_wide_perceptron(backend):
        predictor = PerceptronPredictor(weight_bits=65)
        return simulate_binary(
            tiny_trace, predictor, SelfConfidenceEstimator(predictor),
            backend=backend,
        )

    reference = run_wide_perceptron("reference")
    with pytest.warns(FastBackendFallbackWarning, match="weight_bits"):
        fallback = run_wide_perceptron("fast")
    assert fallback == reference

    wide_jrs = JrsEstimator(counter_bits=70, threshold=15)
    reference = simulate_binary(tiny_trace, GsharePredictor(), wide_jrs)
    with pytest.warns(FastBackendFallbackWarning, match="counter_bits"):
        fallback = simulate_binary(
            tiny_trace, GsharePredictor(), JrsEstimator(counter_bits=70, threshold=15),
            backend="fast",
        )
    assert fallback == reference


def test_fast_engine_raises_for_subclassed_self_confidence(tiny_trace):
    perceptron = _SubclassedPerceptron()
    with pytest.raises(FastBackendUnsupported, match="window width|not vectorizable"):
        simulate_binary_fast(
            tiny_trace, perceptron, SelfConfidenceEstimator(perceptron)
        )


def test_fast_engine_raises_for_self_confidence_predictor_mismatch(tiny_trace):
    """The estimator must observe the simulated predictor instance."""
    simulated = PerceptronPredictor()
    other = PerceptronPredictor()
    with pytest.raises(FastBackendUnsupported, match="different"):
        simulate_binary_fast(tiny_trace, simulated, SelfConfidenceEstimator(other))


def test_simulate_tage_runs_fast_without_warning(tiny_trace):
    """TAGE is inside the fast family now: no fallback, same results."""
    reference = simulate(tiny_trace, build_predictor("16K"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        fast = simulate(tiny_trace, build_predictor("16K"), backend="fast")
    assert fast == reference


def test_simulate_subclassed_tage_falls_back_with_warning(tiny_trace):
    config = build_predictor("16K").config
    reference = simulate(tiny_trace, _SubclassedTage(config))
    with pytest.warns(FastBackendFallbackWarning, match="falling back"):
        fallback = simulate(tiny_trace, _SubclassedTage(config), backend="fast")
    assert fallback == reference


def test_simulate_adaptive_controller_runs_fast_without_warning(tiny_trace):
    """The §6.2 controller is folded into the kernel: no fallback, same
    results — final saturation probability included."""
    reference = run_trace(tiny_trace, size="16K", adaptive=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        fast = run_trace(tiny_trace, size="16K", adaptive=True, backend="fast")
    assert fast == reference
    assert fast.final_sat_prob_log2 == reference.final_sat_prob_log2


def test_simulate_binary_self_confidence_runs_fast_without_warning(tiny_trace):
    def run(backend):
        perceptron = PerceptronPredictor()
        return simulate_binary(
            tiny_trace, perceptron, SelfConfidenceEstimator(perceptron),
            backend=backend,
        )

    reference = run("reference")
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        fast = run("fast")
    assert fast == reference


def test_run_trace_fast_backend_matches_reference(tiny_trace):
    """run_trace (observation estimator attached) rides the fast kernel."""
    reference = run_trace(tiny_trace, size="16K")
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        fast = run_trace(tiny_trace, size="16K", backend="fast")
    assert fast == reference


def test_supported_cells_do_not_warn(tiny_trace):
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        simulate(tiny_trace, BimodalPredictor(), backend="fast")
        simulate(tiny_trace, LocalHistoryPredictor(), backend="fast")
        simulate(tiny_trace, OgehlPredictor(), backend="fast")
        simulate_binary(
            tiny_trace, GsharePredictor(), JrsEstimator(), backend="fast"
        )
        predictor = build_predictor("16K")
        simulate(tiny_trace, predictor, TageConfidenceEstimator(predictor),
                 backend="fast")
        simulate_binary(
            tiny_trace, build_predictor("16K"), JrsEstimator(), backend="fast"
        )
        ogehl = OgehlPredictor()
        simulate_binary(
            tiny_trace, ogehl, SelfConfidenceEstimator(ogehl), backend="fast"
        )


def test_executor_fast_job_with_tage_estimator_matches_reference():
    job = JobSpec(
        predictor=PredictorSpec.of("tage", size="16K"),
        estimator=EstimatorSpec.of("tage"),
        trace="INT-1",
        n_branches=1_500,
        backend="fast",
    )
    reference_job = JobSpec(
        predictor=job.predictor, estimator=job.estimator,
        trace=job.trace, n_branches=job.n_branches,
    )
    reference = execute_job(reference_job)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        fast = execute_job(job)
    assert fast.result == reference.result
    assert fast.binary == reference.binary


def test_executor_fast_adaptive_job_runs_fast_without_warning():
    job = JobSpec(
        predictor=PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
        estimator=EstimatorSpec.of("tage"),
        trace="INT-1",
        n_branches=1_500,
        adaptive=True,
        backend="fast",
    )
    reference_job = JobSpec(
        predictor=job.predictor, estimator=job.estimator,
        trace=job.trace, n_branches=job.n_branches, adaptive=True,
    )
    reference = execute_job(reference_job)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        fast = execute_job(job)
    assert fast.result == reference.result
    assert fast.binary == reference.binary


def test_executor_fast_self_confidence_job_runs_fast_without_warning():
    job = JobSpec(
        predictor=PredictorSpec.of("perceptron"),
        estimator=EstimatorSpec.of("self"),
        trace="MM-1",
        n_branches=1_500,
        backend="fast",
    )
    reference_job = JobSpec(
        predictor=job.predictor, estimator=job.estimator,
        trace=job.trace, n_branches=job.n_branches,
    )
    reference = execute_job(reference_job)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        fast = execute_job(job)
    assert fast.result == reference.result
    assert fast.binary == reference.binary


def test_unknown_backend_is_rejected(tiny_trace):
    with pytest.raises(ValueError, match="unknown backend"):
        simulate(tiny_trace, BimodalPredictor(), backend="vectorized")
    with pytest.raises(ValueError, match="unknown backend"):
        simulate_binary(
            tiny_trace, GsharePredictor(), JrsEstimator(), backend="numpy"
        )
