"""The scenario zoo: the repository's registered beyond-paper sources.

Importing this module registers every zoo source; the registry in
:mod:`repro.traces.sources.base` imports it on its first lookup, so any
process — CLI, sweep spawn workers, the golden harness — resolves
``zoo.*`` names to bit-identical streams.  Seeds derive from the source name via CRC-32,
the same convention :mod:`repro.traces.suites` uses for the CBP names.
"""

from __future__ import annotations

import zlib

from repro.traces.sources.adversarial import (
    ConfidenceInversionSource,
    LinearlyInseparableSource,
    TagAliasingStormSource,
)
from repro.traces.sources.base import register_source
from repro.traces.sources.generators import (
    InterferenceSource,
    LoopNestSource,
    MarkovChainSource,
    PhaseChangeSource,
)
from repro.traces.workload import KernelMix, WorkloadSpec

__all__ = ["ZOO_SOURCES", "ZOO_SOURCE_NAMES", "ADVERSARIAL_SOURCE_NAMES"]


def _seed(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


#: Phase A of ``zoo.phase``: loop-dominated numeric code (FP-like).
_PHASE_LOOPY = WorkloadSpec(
    name="zoo.phase/loops",
    seed=_seed("zoo.phase/loops"),
    n_static=160,
    n_routines=24,
    mix=KernelMix(
        biased_strong=0.30, biased_noisy=0.05, loop=0.35, pattern=0.10,
        parity=0.05, history_fn=0.05, local_pattern=0.05, nested_loop=0.05,
    ),
)

#: Phase B of ``zoo.phase``: large, noisy working set (SERV-like).
_PHASE_NOISY = WorkloadSpec(
    name="zoo.phase/noisy",
    seed=_seed("zoo.phase/noisy"),
    n_static=700,
    n_routines=70,
    mix=KernelMix(
        biased_strong=0.25, biased_noisy=0.30, loop=0.05, pattern=0.05,
        parity=0.10, history_fn=0.20, local_pattern=0.05, nested_loop=0.00,
    ),
)

#: Every zoo source, in registry/report order.
ZOO_SOURCES = (
    MarkovChainSource(label="zoo.markov", seed=_seed("zoo.markov")),
    LoopNestSource(label="zoo.loopnest", seed=_seed("zoo.loopnest")),
    PhaseChangeSource(
        label="zoo.phase",
        segments=(_PHASE_LOOPY, _PHASE_NOISY),
        phase_length=1_200,
    ),
    InterferenceSource(
        label="zoo.interference",
        primary=MarkovChainSource(
            label="zoo.interference/fg", seed=_seed("zoo.interference/fg")
        ),
        secondary=LoopNestSource(
            label="zoo.interference/bg", seed=_seed("zoo.interference/bg")
        ),
        quantum=48,
        pc_window_bits=13,
        seed=_seed("zoo.interference"),
    ),
    ConfidenceInversionSource(
        label="zoo.jrs-inversion", seed=_seed("zoo.jrs-inversion")
    ),
    TagAliasingStormSource(label="zoo.tag-storm", seed=_seed("zoo.tag-storm")),
    LinearlyInseparableSource(label="zoo.xor", seed=_seed("zoo.xor")),
)

#: Zoo names in registry order (the sweep/artifact trace axis).
ZOO_SOURCE_NAMES: tuple[str, ...] = tuple(source.name for source in ZOO_SOURCES)

#: The estimator-breaking subset.
ADVERSARIAL_SOURCE_NAMES: tuple[str, ...] = (
    "zoo.jrs-inversion", "zoo.tag-storm", "zoo.xor",
)

for _source in ZOO_SOURCES:
    register_source(_source)
