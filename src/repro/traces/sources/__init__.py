"""Pluggable trace sources: replay, parameterized synthesis, adversaries.

The registry holds every trace name: the 40 CBP-1/CBP-2 names
(:class:`SuiteTraceSource`, registered when the registry loads), then
the scenario zoo (see :mod:`repro.traces.sources.zoo`), registered on
the first listing, registration or lookup of any other name.  So
``zoo.*`` names resolve anywhere, a CBP lookup never loads the zoo, and
a process that only replays ``file:<path>`` RTRC traces never loads the
synthesis modules.  :func:`resolve_trace` is the one lookup of all of
them (``repro.sim.runner.get_trace`` is the same function).

To add a source: subclass :class:`TraceSource` as a frozen dataclass
(name + spec_dict + a prefix-stable ``records`` stream) and call
:func:`register_source` at import time.  Nothing else changes — the
sweep layer, the cache, the fast backend's plane materialization and
``repro paper`` all key on the name.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".zoo": ("ADVERSARIAL_SOURCE_NAMES", "ZOO_SOURCES", "ZOO_SOURCE_NAMES"),
    ".adversarial": ("ConfidenceInversionSource", "LinearlyInseparableSource",
                     "TagAliasingStormSource"),
    ".base": ("FILE_PREFIX", "MissingTraceFileError", "SuiteTraceSource",
              "TraceSource", "default_trace_length", "get_source",
              "is_source_name", "register_source", "require_trace_file",
              "resolve_trace", "source_names"),
    ".replay": ("FileReplaySource",),
    ".generators": ("InterferenceSource", "LoopNestSource",
                    "MarkovChainSource", "PhaseChangeSource"),
})
