"""Branch trace substrate.

The paper evaluates on the CBP-1 and CBP-2 championship trace sets, which
are no longer distributed.  This package provides a faithful *synthetic*
substitute (see DESIGN.md §2): deterministic workload generators that
produce traces with the same names and the same qualitative mix of branch
behaviours (strongly biased, loop, pattern, history-correlated,
intrinsically noisy, large-working-set), plus a compact binary trace file
format so traces can be produced once and replayed.

Public entry points:

* :func:`resolve_trace` — the one lookup of every trace name (the CBP
  suites, the ``zoo.*`` scenario sources, ``file:<path>`` replays),
  memoized per process; :func:`source_names` lists the registry;
* :func:`cbp1_trace` / :func:`cbp2_trace` — one named trace of a suite;
* :func:`cbp1_suite` / :func:`cbp2_suite` — generate a whole suite;
* :data:`CBP1_TRACE_NAMES` / :data:`CBP2_TRACE_NAMES` — the paper's names;
* :class:`repro.traces.types.Trace` — the in-memory trace model;
* :mod:`repro.traces.io` — trace file read/write (streaming reads);
* :mod:`repro.traces.sources` — the trace-source registry: the CBP
  names, ``file:<path>`` replay, parameterized generators and the
  adversarial scenario zoo.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".kernels": ("BiasedKernel", "BranchKernel", "HistoryFunctionKernel",
                 "HistoryParityKernel", "LocalPatternKernel", "LoopKernel",
                 "NestedLoopKernel", "PatternKernel"),
    ".types": ("BranchRecord", "Trace"),
    ".names": ("CBP1_TRACE_NAMES", "CBP2_TRACE_NAMES"),
    ".workload": ("KernelMix", "StaticBranch", "SyntheticWorkload",
                  "WorkloadSpec"),
    ".io": ("TraceReader", "read_trace", "write_trace"),
    ".sources": ("TraceSource", "ZOO_SOURCE_NAMES", "register_source",
                 "resolve_trace", "source_names"),
    ".stats": ("TraceStatistics", "analyze_trace"),
    ".suites": ("cbp1_suite", "cbp1_trace", "cbp2_suite", "cbp2_trace",
                "trace_spec"),
})
