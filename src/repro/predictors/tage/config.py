"""TAGE configuration and the paper's three storage presets.

Table 1 of the paper:

============== ======== ======== =========
storage budget 16 Kbits 64 Kbits 256 Kbits
tables         1 + 4    1 + 7    1 + 8
min history    3        5        5
max history    80       130      300
============== ======== ======== =========

The presets below realize those parameters with the paper's
"realistically implementable" constraints: every tagged table has the
same number of entries, bimodal hysteresis is not shared, and the total
storage (:meth:`TageConfig.storage_bits`) fits the stated budget:

* ``small``  : 2^11-entry bimodal + 4 × 2^8-entry tagged, 7-bit tags
  → 16 384 bits (exactly 16 Kbits).
* ``medium`` : 2^12-entry bimodal + 7 × 2^9-entry tagged, 11-bit tags
  → 65 536 bits (exactly 64 Kbits).
* ``large``  : 2^13-entry bimodal + 8 × 2^11-entry tagged, 10-bit tags
  → 262 144 bits (exactly 256 Kbits).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.predictors.ogehl import geometric_history_lengths

__all__ = ["TageConfig", "AUTOMATON_STANDARD", "AUTOMATON_PROBABILISTIC"]

AUTOMATON_STANDARD = "standard"
AUTOMATON_PROBABILISTIC = "probabilistic"

#: The paper's storage presets (Table 1), in :meth:`TageConfig.preset` names.
SIZES = ("16K", "64K", "256K")

_ALLOCATION_POLICIES = ("randomized", "first-free")


@dataclass(frozen=True)
class TageConfig:
    """Complete parameterization of a :class:`TagePredictor`.

    Attributes:
        name: configuration label (used in reports).
        n_tagged: number of tagged components (M).
        log_bimodal: log2 entries of the base bimodal table.
        log_tagged: log2 entries of each tagged component.
        tag_bits: partial tag width.
        ctr_bits: tagged prediction counter width (3 in the paper; 4 for
            the §6 widening ablation).
        u_bits: useful counter width (2 per the paper's tradeoff).
        min_history / max_history: geometric history series endpoints.
        path_history_bits: length of the path history register mixed into
            tagged indices.
        use_alt_on_na_bits: width of the USE_ALT_ON_NA counter (4).
        use_alt_on_na_enabled: disable to always trust the provider sign
            (the §3.1 ablation: selective alternate-prediction use is a
            small but real accuracy win).
        u_reset_period: branches between graceful u-counter resets
            (one-bit right shift).  The reference simulators use 256K;
            the default here is scaled to this repository's shorter
            traces.
        automaton: ``"standard"`` or ``"probabilistic"`` (§6).
        sat_prob_log2: log2 of the saturation probability denominator for
            the probabilistic automaton (7 → 1/128, the paper's default).
        allocation_policy: ``"randomized"`` (reference-simulator style
            randomized start) or ``"first-free"``.
        update_alt_when_u_zero: also train the alternate entry when the
            provider's u counter is 0 (an L-TAGE refinement; off by
            default to match the 2006 TAGE automaton the paper uses).
        lfsr_seed / alloc_seed: seeds of the deterministic random sources.
    """

    name: str
    n_tagged: int
    log_bimodal: int
    log_tagged: int
    tag_bits: int
    min_history: int
    max_history: int
    ctr_bits: int = 3
    u_bits: int = 2
    path_history_bits: int = 16
    use_alt_on_na_bits: int = 4
    use_alt_on_na_enabled: bool = True
    u_reset_period: int = 32_768
    automaton: str = AUTOMATON_STANDARD
    sat_prob_log2: int = 7
    allocation_policy: str = "randomized"
    update_alt_when_u_zero: bool = False
    lfsr_seed: int = 0x0BADF00D
    alloc_seed: int = 0x5EEDBA5E
    history_lengths: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_tagged < 1:
            raise ValueError(f"need at least one tagged component, got {self.n_tagged}")
        for label, value in (
            ("log_bimodal", self.log_bimodal),
            ("log_tagged", self.log_tagged),
            ("tag_bits", self.tag_bits),
            ("path_history_bits", self.path_history_bits),
        ):
            if value <= 0:
                raise ValueError(f"{label} must be positive, got {value}")
        if self.ctr_bits < 2:
            raise ValueError(f"ctr_bits must be >= 2, got {self.ctr_bits}")
        if self.u_bits < 1:
            raise ValueError(f"u_bits must be >= 1, got {self.u_bits}")
        if not 0 < self.min_history <= self.max_history:
            raise ValueError(
                f"need 0 < min_history <= max_history, got "
                f"{self.min_history}, {self.max_history}"
            )
        if self.automaton not in (AUTOMATON_STANDARD, AUTOMATON_PROBABILISTIC):
            raise ValueError(f"unknown automaton {self.automaton!r}")
        if not 0 <= self.sat_prob_log2 <= 20:
            raise ValueError(f"sat_prob_log2 must be in [0, 20], got {self.sat_prob_log2}")
        if self.allocation_policy not in _ALLOCATION_POLICIES:
            raise ValueError(
                f"allocation_policy must be one of {_ALLOCATION_POLICIES}, "
                f"got {self.allocation_policy!r}"
            )
        if self.u_reset_period <= 0:
            raise ValueError(f"u_reset_period must be positive, got {self.u_reset_period}")
        lengths = geometric_history_lengths(
            self.min_history, self.max_history, self.n_tagged
        )
        object.__setattr__(self, "history_lengths", tuple(lengths))

    # -- presets (paper Table 1) ----------------------------------------

    @classmethod
    def small(cls, **overrides) -> "TageConfig":
        """16 Kbits: 1 + 4 tables, histories 3..80."""
        config = cls(
            name="TAGE-16K",
            n_tagged=4,
            log_bimodal=11,
            log_tagged=8,
            tag_bits=7,
            min_history=3,
            max_history=80,
        )
        return replace(config, **overrides) if overrides else config

    @classmethod
    def medium(cls, **overrides) -> "TageConfig":
        """64 Kbits: 1 + 7 tables, histories 5..130."""
        config = cls(
            name="TAGE-64K",
            n_tagged=7,
            log_bimodal=12,
            log_tagged=9,
            tag_bits=11,
            min_history=5,
            max_history=130,
        )
        return replace(config, **overrides) if overrides else config

    @classmethod
    def large(cls, **overrides) -> "TageConfig":
        """256 Kbits: 1 + 8 tables, histories 5..300."""
        config = cls(
            name="TAGE-256K",
            n_tagged=8,
            log_bimodal=13,
            log_tagged=11,
            tag_bits=10,
            min_history=5,
            max_history=300,
        )
        return replace(config, **overrides) if overrides else config

    @classmethod
    def preset(cls, size: str, **overrides) -> "TageConfig":
        """Look up a preset by name: ``"16K"``, ``"64K"`` or ``"256K"``."""
        builders = {"16K": cls.small, "64K": cls.medium, "256K": cls.large}
        try:
            return builders[size](**overrides)
        except KeyError:
            raise KeyError(f"unknown preset {size!r}; choose from {sorted(builders)}") from None

    # -- derived quantities ----------------------------------------------

    def with_probabilistic_automaton(self, sat_prob_log2: int = 7) -> "TageConfig":
        """This configuration with the §6 modified counter automaton."""
        return replace(
            self,
            automaton=AUTOMATON_PROBABILISTIC,
            sat_prob_log2=sat_prob_log2,
            name=f"{self.name}-prob{1 << sat_prob_log2}",
        )

    def tagged_entry_bits(self) -> int:
        """Bits per tagged entry: prediction counter + tag + useful."""
        return self.ctr_bits + self.tag_bits + self.u_bits

    def component_geometries(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Per-tagged-component hash geometry, in T1..TM order.

        Each tuple is ``(table_number, log_entries, tag_bits,
        history_length, path_bits)`` — exactly the parameters the
        component's index and tag hashes depend on (``path_bits`` is the
        effective per-component path window,
        ``min(path_history_bits, history_length)``, mirroring
        :class:`~repro.predictors.tage.components.TaggedComponent`).
        The fast backend keys its precomputed index/tag planes on this
        tuple: two configurations with equal geometries (e.g. the same
        preset under different counter automata or seeds) share planes.
        """
        return tuple(
            (
                i + 1,
                self.log_tagged,
                self.tag_bits,
                length,
                min(self.path_history_bits, length),
            )
            for i, length in enumerate(self.history_lengths)
        )

    def storage_bits(self) -> int:
        """Total table storage (the paper's budget accounting)."""
        bimodal = (1 << self.log_bimodal) * 2
        tagged = self.n_tagged * (1 << self.log_tagged) * self.tagged_entry_bits()
        return bimodal + tagged
