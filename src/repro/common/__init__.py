"""Bit-level substrate shared by every predictor in the repository.

The modules here are deliberately dependency-free (stdlib only) so that the
predictor implementations read like their hardware counterparts:

``counters``
    Saturating signed/unsigned counter arithmetic (both free functions used
    in predictor inner loops and small counter classes for bookkeeping
    state such as ``USE_ALT_ON_NA``).
``rng``
    Deterministic pseudo-random sources standing in for the hardware LFSR
    that the paper's probabilistic counter automaton requires.
``history``
    Global branch history, path history and incrementally *folded*
    histories (the classic TAGE/O-GEHL circular-shift folding).
``bitops``
    Small hashing/mixing helpers used to build table indices and partial
    tags.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".history": ("FoldedHistory", "GlobalHistory", "PathHistory"),
    ".rng": ("Lfsr32", "SplitMix64", "XorShift32"),
    ".counters": ("SaturatingCounter", "SignedSaturatingCounter",
                  "ctr_strength", "saturating_update",
                  "signed_saturating_update"),
    ".bitops": ("fold_bits", "mask", "mix_pc", "reverse_bits"),
})
