"""Declarative paper-artifact pipeline (``repro paper``).

The package turns "reproduce the paper" into one command: a registry of
declarative artifact specs (:mod:`repro.artifacts.registry` — Tables
1-3, Figures 2-6, the §5.1/§6.2 running-text series, the configuration
ablations, plus beyond-paper application scenarios, each declaring its
sweep grids), a sweep service (:mod:`repro.artifacts.service`) that
executes every declared grid as one plan and serves them back, and a
runner (:mod:`repro.artifacts.runner`) that builds the whole set and emits
``PAPER_RESULTS.md`` + ``paper_results.json`` with repro-vs-paper
deltas.

The benchmark suite consumes the same registry, so every experiment grid
in the repository is defined exactly once.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".registry": ("ARTIFACT_KEYS", "REGISTRY", "UnknownArtifactError",
                  "get_artifact", "observation_grid", "suite_grid"),
    ".spec": ("ArtifactPayload", "ArtifactResult", "ArtifactSpec", "Scale"),
    ".runner": ("ArtifactValidationError", "PaperRun", "build_artifact",
                "run_paper", "select_artifacts", "write_reports"),
    ".service": ("SweepService",),
})
