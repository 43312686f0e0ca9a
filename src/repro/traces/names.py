"""The paper's trace and suite names.

A leaf module: the CLI's parser, the trace-source registry and the sweep
layer check names against these tables without loading the synthesis
modules that generate the traces (:mod:`repro.traces.suites`).
"""

from __future__ import annotations

__all__ = ["SUITES", "CBP1_TRACE_NAMES", "CBP2_TRACE_NAMES", "FIGURE4_TRACE_NAMES"]

#: The two championship suites the paper evaluates on.
SUITES = ("CBP1", "CBP2")

CBP1_TRACE_NAMES: tuple[str, ...] = (
    "FP-1", "FP-2", "FP-3", "FP-4", "FP-5",
    "INT-1", "INT-2", "INT-3", "INT-4", "INT-5",
    "MM-1", "MM-2", "MM-3", "MM-4", "MM-5",
    "SERV-1", "SERV-2", "SERV-3", "SERV-4", "SERV-5",
)

CBP2_TRACE_NAMES: tuple[str, ...] = (
    "164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty",
    "197.parser", "201.compress", "202.jess", "205.raytrace", "209.db",
    "213.javac", "222.mpegaudio", "227.mtrt", "228.jack", "252.eon",
    "253.perlbmk", "254.gap", "255.vortex", "256.bzip2", "300.twolf",
)

#: The CBP-2 traces shown in the paper's Figures 4 and 6 (the caption says
#: "7 CBP2 traces"; the plotted axis labels are these six benchmarks).
FIGURE4_TRACE_NAMES: tuple[str, ...] = (
    "164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty", "197.parser",
)
