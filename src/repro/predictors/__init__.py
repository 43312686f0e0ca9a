"""Branch predictors.

* :class:`repro.predictors.base.BranchPredictor` — the common
  predict/train interface used by the simulation engine.
* :class:`repro.predictors.bimodal.BimodalPredictor` — Smith's 2-bit
  counter predictor [14], both a baseline and the TAGE base component.
* :class:`repro.predictors.gshare.GsharePredictor` — McFarling's gshare
  [10], the index scheme behind the JRS confidence table.
* :class:`repro.predictors.perceptron.PerceptronPredictor` — Jiménez/Lin
  global perceptron, carrier of the perceptron self-confidence baseline.
* :class:`repro.predictors.ogehl.OgehlPredictor` — Seznec's O-GEHL [11],
  carrier of the O-GEHL self-confidence baseline cited in §2.2.
* :mod:`repro.predictors.tage` — the TAGE predictor family (the paper's
  subject), with the paper's three storage presets and both the standard
  and the probabilistic-saturation counter automata.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("BranchPredictor", "PredictorError"),
    ".bimodal": ("BimodalPredictor",),
    ".gshare": ("GsharePredictor",),
    ".local": ("LocalHistoryPredictor",),
    ".tage.loop": ("LoopPredictor", "LtagePredictor"),
    ".tournament": ("TournamentPredictor",),
    ".ogehl": ("OgehlPredictor",),
    ".perceptron": ("PerceptronPredictor",),
    ".tage": ("TageConfig", "TagePrediction", "TagePredictor"),
})
