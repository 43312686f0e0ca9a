"""The ``repro paper`` pipeline: run the registry, emit the reports.

:func:`run_paper` builds a selection of registered artifacts in four
phases:

1. **collect** — every artifact declares its sweep grids up front
   (:meth:`~repro.artifacts.spec.ArtifactSpec.grids`);
2. **plan** — the union becomes one
   :class:`~repro.sweep.executor.ExecutionPlan`: deduplicated by job
   spec hash, probed against the on-disk cache once and lockstep-fused
   across artifacts;
3. **execute** — one broker, one worker pool and one journal
   (``<cache>/runs/<run-id>.jsonl``) run the whole plan, dispatching
   it trace by trace;
4. **render** — each builder reads its grids' results back from the
   executed plan through the shared
   :class:`~repro.artifacts.service.SweepService`.

Every job lands in the on-disk sweep cache, so an immediate re-run is served entirely from cache
(``PaperRun.fully_cached``).  The run fails loudly on any missing or
non-finite artifact cell.

:func:`write_reports` renders the outcome twice:

* ``PAPER_RESULTS.md`` — human-readable: every rendered table/series
  plus a repro-vs-paper delta table per artifact;
* ``paper_results.json`` — machine-readable cells/paper/deltas.

Both files are deterministic functions of the simulation results (no
timestamps, no wall-clock), so two runs over the same cache produce
byte-identical reports — the property CI's cache round-trip job checks.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.artifacts.registry import ARTIFACT_KEYS, get_artifact
from repro.artifacts.service import SweepService
from repro.artifacts.spec import ArtifactResult, ArtifactSpec, Scale
from repro.sim.backends import DEFAULT_BACKEND
from repro.sim.report import format_delta_rows, render_markdown_table
from repro.sweep.cache import ResultCache

__all__ = [
    "ArtifactValidationError",
    "PaperRun",
    "build_artifact",
    "run_paper",
    "select_artifacts",
    "write_reports",
    "RESULTS_FORMAT",
]

#: Bump when the ``paper_results.json`` layout changes.
RESULTS_FORMAT = 1

#: Markdown column order of the per-artifact delta tables.
_DELTA_HEADERS = ("cell", "repro", "paper", "delta", "ratio")


class ArtifactValidationError(RuntimeError):
    """One or more artifacts produced missing or non-finite cells."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__(
            "artifact validation failed:\n" + "\n".join(f"  - {p}" for p in problems)
        )
        self.problems = tuple(problems)


def select_artifacts(keys: Iterable[str] | None = None) -> tuple[ArtifactSpec, ...]:
    """Resolve a key selection (None = everything) in registry order.

    Selections are deduplicated and re-ordered to the registry's report
    order, so the same subset produces byte-identical reports regardless
    of how the user ordered ``--only``.

    Raises:
        UnknownArtifactError: for any key not in the registry.
    """
    if keys is None:
        return tuple(get_artifact(key) for key in ARTIFACT_KEYS)
    selected = {spec.key for spec in (get_artifact(key) for key in keys)}
    return tuple(get_artifact(key) for key in ARTIFACT_KEYS if key in selected)


def build_artifact(
    key: str | ArtifactSpec,
    service: SweepService,
    scale: Scale,
) -> ArtifactResult:
    """Build one artifact through a shared sweep service, executing
    whichever of its declared grids the service has not run yet."""
    spec = key if isinstance(key, ArtifactSpec) else get_artifact(key)
    service.execute(spec.grids(scale))
    payload = spec.build(service, scale)
    return ArtifactResult(
        spec=spec,
        scale=scale,
        text=payload.text,
        cells=dict(payload.cells),
        data=payload.data,
    )


@dataclass(frozen=True)
class PaperRun:
    """A completed pipeline pass: built artifacts + execution accounting."""

    artifacts: tuple[ArtifactResult, ...]
    scale: Scale
    backend: str
    n_jobs: int
    n_cached: int
    n_executed: int
    elapsed: float = field(compare=False)

    @property
    def fully_cached(self) -> bool:
        """True when no sweep job was simulated (pure cache replay).

        Covers sweep jobs only: the beyond-paper application artifacts
        run their (cheap, deterministic) cycle models in-process on
        every invocation — their output is still covered by the
        byte-identical-reports guarantee.
        """
        return self.n_executed == 0

    def describe(self) -> str:
        return (
            f"{len(self.artifacts)} artifact(s), {self.n_jobs} sweep jobs "
            f"({self.n_cached} cached, {self.n_executed} executed) "
            f"on the {self.backend} backend in {self.elapsed:.2f}s"
        )

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        """Deterministic plain-data form of the whole run."""
        return {
            "format": RESULTS_FORMAT,
            "paper": "Seznec, 'Storage Free Confidence Estimation for the "
                     "TAGE Branch Predictor' (HPCA 2011)",
            "scale": self.scale.as_dict(),
            "artifacts": {
                result.key: result.as_json_dict() for result in self.artifacts
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        """Render ``PAPER_RESULTS.md`` (deterministic, no wall-clock)."""
        lines = [
            "# Paper reproduction results",
            "",
            "Seznec, *Storage Free Confidence Estimation for the TAGE Branch",
            "Predictor* (HPCA 2011) — regenerated by `repro paper`.",
            "",
            f"Scale: {self.scale.n_branches} dynamic branches per trace "
            f"({self.scale.warmup_branches} excluded from class accounting "
            "as warm-up).  The paper simulates ~30 M instructions per trace "
            "over captured CBP traces; this reproduction uses deterministic "
            "synthetic workloads at reduced scale, so absolute numbers "
            "differ while the paper's shapes and orderings hold "
            "(see docs/REPRODUCTION.md).",
            "",
            "## Artifacts",
            "",
            render_markdown_table(
                ("artifact", "paper element", "kind", "title"),
                [
                    [f"[{r.key}](#{r.key.lower()})", r.spec.paper_element,
                     r.spec.kind, r.spec.title]
                    for r in self.artifacts
                ],
            ),
        ]
        for result in self.artifacts:
            lines += [
                "",
                f"## {result.key}",
                "",
                f"**{result.spec.paper_element}** — {result.spec.title}",
                "",
                result.spec.description,
                "",
                "```text",
                result.text,
                "```",
            ]
            deltas = result.deltas
            if deltas:
                lines += [
                    "",
                    "Repro vs paper (absolute values differ by design; the "
                    "deltas track drift between revisions):",
                    "",
                    render_markdown_table(_DELTA_HEADERS, format_delta_rows(deltas)),
                ]
        return "\n".join(lines) + "\n"


def run_paper(
    keys: Iterable[str] | None = None,
    *,
    scale: Scale | None = None,
    workers: int | None = 1,
    cache: ResultCache | None = None,
    backend: str = DEFAULT_BACKEND,
    progress: Callable[[str], None] | None = None,
    run_id: str | None = None,
    resume: bool = False,
) -> PaperRun:
    """Build the selected artifacts (default: the whole registry).

    Every run is validated: a missing or non-finite cell raises
    :class:`ArtifactValidationError` (the CI contract).

    Args:
        keys: artifact keys (case-insensitive); None runs everything.
        scale: run scale; defaults to :meth:`Scale.full`.
        workers: sweep pool size (None picks one per CPU).
        cache: on-disk job cache; None disables caching entirely.
        backend: simulation engine for every sweep cell.
        progress: optional sink for status lines.
        run_id: names the run's one journal, ``<cache>/runs/<run_id>.jsonl``
            (auto-generated when omitted); an interrupted ``repro paper``
            invocation resumes with the same id.
        resume: continue the journal ``run_id`` left behind (the same
            selection and scale must re-plan the same jobs); a missing
            journal starts fresh.
    """
    scale = scale or Scale.full()
    specs = select_artifacts(keys)
    service = SweepService(
        workers=workers, cache=cache, backend=backend, progress=progress,
    )
    start = time.perf_counter()
    service.execute(
        (grid for spec in specs for grid in spec.grids(scale)),
        run_id=run_id, resume=resume,
    )
    results = []
    for spec in specs:
        if progress:
            progress(f"[{spec.key}] {spec.paper_element}: {spec.title}")
        results.append(build_artifact(spec, service, scale))
    run = PaperRun(
        artifacts=tuple(results),
        scale=scale,
        backend=backend,
        n_jobs=service.n_jobs,
        n_cached=service.n_cached,
        n_executed=service.n_executed,
        elapsed=time.perf_counter() - start,
    )
    problems = [p for result in run.artifacts for p in result.validate()]
    if problems:
        raise ArtifactValidationError(problems)
    if progress:
        progress(run.describe())
    return run


def write_reports(run: PaperRun, out_dir: str | Path = ".") -> tuple[Path, Path]:
    """Write ``PAPER_RESULTS.md`` + ``paper_results.json`` under a dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    md_path = out / "PAPER_RESULTS.md"
    json_path = out / "paper_results.json"
    md_path.write_text(run.to_markdown())
    json_path.write_text(run.to_json())
    return md_path, json_path
