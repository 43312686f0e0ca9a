"""Confidence estimation for branch predictions.

The paper's contribution lives in :mod:`repro.confidence.estimator`
(:class:`TageConfidenceEstimator`): purely observational classification of
TAGE predictions into the 7 classes of §5, mapped onto the 3 confidence
levels of §6.  :mod:`repro.confidence.adaptive` implements the §6.2
run-time control of the saturation probability.

The storage-*based* prior art the paper argues against is implemented for
comparison in :mod:`repro.confidence.jrs` (JRS [4] and the Grunwald et al.
enhancement [3]) and :mod:`repro.confidence.self_confidence` (perceptron
[5] / O-GEHL [11] self confidence).

:mod:`repro.confidence.metrics` provides both metric families used in the
literature: SENS/PVP/PVN/SPEC for binary estimators [3] and
Pcov/MPcov/MPrate (in Mispredictions per Kilo-Prediction) for multi-class
estimators, as defined in §4.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".adaptive": ("AdaptiveSaturationController",),
    ".metrics": ("BinaryConfidenceMetrics", "ClassBreakdown", "mkp"),
    ".classes": ("CLASS_ORDER", "ConfidenceLevel", "PredictionClass",
                 "confidence_level_of"),
    ".calibration": ("ClassRateTracker", "ReliabilityReport",
                     "calibrate_simulation"),
    ".jrs": ("EnhancedJrsEstimator", "JrsEstimator"),
    ".self_confidence": ("SelfConfidenceEstimator",),
    ".estimator": ("TageConfidenceEstimator",),
})
