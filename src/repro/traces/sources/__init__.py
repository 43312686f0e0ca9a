"""Pluggable trace sources: replay, parameterized synthesis, adversaries.

The registry's first lookup (or registration) registers the scenario
zoo (see :mod:`repro.traces.sources.zoo`), so ``zoo.*`` names resolve
anywhere while a process that never looks a name up — or only replays
``file:<path>`` RTRC traces — never loads the synthesis modules.
:func:`repro.sim.runner.get_trace` falls back to :func:`resolve_trace`
for any name the CBP suites don't claim.

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
    ".base": ("FILE_PREFIX", "MissingTraceFileError", "TraceSource",
              "get_source", "is_source_name", "register_source",
              "require_trace_file", "resolve_trace", "source_names"),
    ".replay": ("FileReplaySource",),
    ".generators": ("InterferenceSource", "LoopNestSource",
                    "MarkovChainSource", "PhaseChangeSource"),
})
