"""Reproduction of "Storage Free Confidence Estimation for the TAGE branch
predictor" (A. Seznec, HPCA 2011 / INRIA RR-7371).

The package is organized as:

``repro.common``
    Bit-level substrate: saturating counters, deterministic RNGs,
    global/folded branch history registers.
``repro.traces``
    Branch trace model, synthetic CBP-1/CBP-2 workload generators and
    trace file IO.
``repro.predictors``
    Branch predictors: bimodal, gshare, perceptron, O-GEHL and the TAGE
    predictor family with the paper's 16K/64K/256K-bit presets.
``repro.confidence``
    The paper's storage-free confidence estimation (7 observation classes,
    3 confidence levels, adaptive saturation probability) plus the
    storage-based JRS baselines and quality metrics.
``repro.sim``
    Trace-driven simulation engine, per-class statistics and experiment
    runners that regenerate the paper's tables and figures.
``repro.sweep``
    Experiment orchestration: declarative predictor × estimator × trace
    grids, parallel execution with deterministic seeding, on-disk result
    caching and tidy aggregation.
``repro.apps``
    Confidence-estimation consumers: fetch gating and SMT fetch policy
    models.
``repro.api``
    The stable import surface: ``simulate``/``simulate_binary``,
    ``run_trace``, ``run_sweep``, ``run_paper``, ``resolve_trace`` and
    the backend capability query — import from there instead of deep
    module paths.

Quickstart::

    from repro import (
        TageConfig, TagePredictor, TageConfidenceEstimator, simulate,
    )
    from repro.traces import cbp1_trace

    trace = cbp1_trace("INT-1", n_branches=50_000)
    predictor = TagePredictor(TageConfig.medium())
    estimator = TageConfidenceEstimator(predictor)
    result = simulate(trace, predictor, estimator)
    print(result.mpki, result.class_table())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.confidence.adaptive": ("AdaptiveSaturationController",),
    "repro.predictors.bimodal": ("BimodalPredictor",),
    "repro.confidence.metrics": ("BinaryConfidenceMetrics", "ClassBreakdown"),
    "repro.predictors.base": ("BranchPredictor",),
    "repro.traces.types": ("BranchRecord", "Trace"),
    "repro.confidence.classes": ("ConfidenceLevel", "PredictionClass"),
    "repro.confidence.jrs": ("EnhancedJrsEstimator", "JrsEstimator"),
    "repro.predictors.gshare": ("GsharePredictor",),
    "repro.predictors.ogehl": ("OgehlPredictor",),
    "repro.predictors.perceptron": ("PerceptronPredictor",),
    "repro.sim.engine": ("SimulationResult", "simulate"),
    "repro.confidence.estimator": ("TageConfidenceEstimator",),
    "repro.predictors.tage": ("TageConfig", "TagePrediction", "TagePredictor"),
    "repro.sweep": ("EstimatorSpec", "ExperimentSpec", "PredictorSpec", "run_sweep"),
})
