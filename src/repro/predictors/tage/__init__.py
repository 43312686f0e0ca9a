"""The TAGE predictor family (Seznec & Michaud [13], Seznec [12]).

Modules:

* :mod:`repro.predictors.tage.config` — :class:`TageConfig` with the
  paper's three storage presets (Table 1: 16K / 64K / 256K bits).
* :mod:`repro.predictors.tage.automaton` — the 3-bit prediction counter
  update rules: the standard saturating automaton and the paper's §6
  probabilistic-saturation modification.
* :mod:`repro.predictors.tage.components` — the base bimodal table and
  the partially tagged components with their folded-history index/tag
  pipelines.
* :mod:`repro.predictors.tage.predictor` — :class:`TagePredictor`, the
  full prediction/update/allocation state machine, and
  :class:`TagePrediction`, the per-prediction observation record that the
  storage-free confidence estimator reads.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".components": ("BimodalTable", "TaggedComponent"),
    ".automaton": ("CounterAutomaton", "ProbabilisticSaturationAutomaton",
                   "StandardAutomaton"),
    ".loop": ("LoopPredictor", "LtagePredictor"),
    ".config": ("TageConfig",),
    ".predictor": ("TagePrediction", "TagePredictor"),
})
