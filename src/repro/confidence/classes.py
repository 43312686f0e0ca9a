"""The paper's prediction classes and confidence levels.

§5 splits TAGE predictions into 7 observation classes; §6.1 groups them
into three confidence levels:

* **low**    = ``low-conf-bim`` ∪ ``Wtag`` ∪ ``NWtag`` — misprediction
  rate in the 30 % range;
* **medium** = ``medium-conf-bim`` ∪ ``NStag`` — 8–12 % range (with the
  §6 modified automaton);
* **high**   = ``high-conf-bim`` ∪ ``Stag`` — below 1 %.
"""

from __future__ import annotations

import enum

__all__ = [
    "PredictionClass",
    "ConfidenceLevel",
    "CLASS_ORDER",
    "LEVEL_ORDER",
    "OBSERVATION_CLASS_CODES",
    "CODE_OF_CLASS",
    "LEVEL_OF_CODE",
    "confidence_level_of",
    "classes_of_level",
]


class PredictionClass(enum.Enum):
    """The 7 observation classes of §5.

    Values are the paper's figure-legend labels.
    """

    HIGH_CONF_BIM = "high-conf-bim"
    LOW_CONF_BIM = "low-conf-bim"
    MEDIUM_CONF_BIM = "medium-conf-bim"
    STAG = "Stag"
    NSTAG = "NStag"
    NWTAG = "NWtag"
    WTAG = "Wtag"

    @property
    def is_bimodal(self) -> bool:
        """True for the three classes provided by the bimodal component."""
        return self in (
            PredictionClass.HIGH_CONF_BIM,
            PredictionClass.MEDIUM_CONF_BIM,
            PredictionClass.LOW_CONF_BIM,
        )

    def __str__(self) -> str:
        return self.value


class ConfidenceLevel(enum.Enum):
    """The three-level grouping of §6.1."""

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"

    def __str__(self) -> str:
        return self.value


#: Figure legend order used by the paper's stacked plots.
CLASS_ORDER: tuple[PredictionClass, ...] = (
    PredictionClass.HIGH_CONF_BIM,
    PredictionClass.LOW_CONF_BIM,
    PredictionClass.MEDIUM_CONF_BIM,
    PredictionClass.STAG,
    PredictionClass.NSTAG,
    PredictionClass.NWTAG,
    PredictionClass.WTAG,
)

LEVEL_ORDER: tuple[ConfidenceLevel, ...] = (
    ConfidenceLevel.HIGH,
    ConfidenceLevel.MEDIUM,
    ConfidenceLevel.LOW,
)

_LEVEL_OF_CLASS: dict[PredictionClass, ConfidenceLevel] = {
    PredictionClass.HIGH_CONF_BIM: ConfidenceLevel.HIGH,
    PredictionClass.STAG: ConfidenceLevel.HIGH,
    PredictionClass.MEDIUM_CONF_BIM: ConfidenceLevel.MEDIUM,
    PredictionClass.NSTAG: ConfidenceLevel.MEDIUM,
    PredictionClass.LOW_CONF_BIM: ConfidenceLevel.LOW,
    PredictionClass.NWTAG: ConfidenceLevel.LOW,
    PredictionClass.WTAG: ConfidenceLevel.LOW,
}


#: Integer class codes shared by the reference step loop, the fast TAGE
#: kernels and the serving wire format: code ``i`` is
#: ``OBSERVATION_CLASS_CODES[i]`` (the figure legend order).
OBSERVATION_CLASS_CODES: tuple[PredictionClass, ...] = CLASS_ORDER

CODE_OF_CLASS: dict[PredictionClass, int] = {
    prediction_class: code
    for code, prediction_class in enumerate(OBSERVATION_CLASS_CODES)
}

LEVEL_OF_CODE: tuple[ConfidenceLevel, ...] = tuple(
    _LEVEL_OF_CLASS[prediction_class] for prediction_class in OBSERVATION_CLASS_CODES
)


def confidence_level_of(prediction_class: PredictionClass) -> ConfidenceLevel:
    """Map a §5 observation class to its §6.1 confidence level."""
    return _LEVEL_OF_CLASS[prediction_class]


def classes_of_level(level: ConfidenceLevel) -> tuple[PredictionClass, ...]:
    """The observation classes grouped under one confidence level."""
    return tuple(
        prediction_class
        for prediction_class, mapped in _LEVEL_OF_CLASS.items()
        if mapped is level
    )
