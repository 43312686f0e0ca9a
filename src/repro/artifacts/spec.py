"""Declarative paper artifacts: the data model.

An *artifact* is one reproducible element of the paper — a table, a
figure series, a running-text ablation, or a beyond-paper application
scenario.  Each :class:`ArtifactSpec` declares

* which sweep grids it needs (:meth:`ArtifactSpec.grids`, declared up
  front so one pipeline run can plan, deduplicate and execute every
  artifact's grids together; the builder then reads each grid back
  from the shared :class:`~repro.artifacts.service.SweepService`),
* how the raw sweep output is aggregated into named numeric *cells*
  (machine-readable, one flat ``str -> number`` mapping per artifact),
* the expected *paper values* for the cells the paper reports exactly,

so the whole reproduction is data-driven: the registry
(:mod:`repro.artifacts.registry`) is the single definition of every
grid, and both the ``repro paper`` pipeline and the benchmark suite are
thin consumers of it.

Absolute numbers differ from the paper (synthetic traces, reduced
scale — see docs/REPRODUCTION.md); the repro-vs-paper *deltas* computed
here are a drift report, not an assertion.  Validation is structural:
every declared cell must exist and be finite, and every expected paper
cell must have a measured counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.artifacts.service import SweepService
    from repro.sweep.spec import ExperimentSpec

__all__ = [
    "Scale",
    "ArtifactPayload",
    "ArtifactSpec",
    "ArtifactResult",
    "cell_deltas",
]

#: Artifact kinds, in the order they appear in reports.
ARTIFACT_KINDS = ("table", "figure", "text", "ablation", "application")


@dataclass(frozen=True)
class Scale:
    """Run scale shared by every artifact of one pipeline invocation.

    The paper simulates ~30 M instructions per trace; the default scale
    (16 000 dynamic branches, matching the benchmark suite) keeps a full
    registry run in the minutes range while leaving every confidence
    class enough volume for stable rates.  The first quarter of every
    trace is excluded from class accounting (predictor warm-up would
    otherwise dominate the confidence tables at reduced scale).
    """

    n_branches: int = 16_000

    def __post_init__(self) -> None:
        if self.n_branches <= 0:
            raise ValueError(f"n_branches must be positive, got {self.n_branches}")

    @property
    def warmup_branches(self) -> int:
        """Leading branches excluded from class accounting (one quarter)."""
        return self.n_branches // 4

    @classmethod
    def quick(cls) -> "Scale":
        """CI scale: every artifact, a few seconds of simulation each."""
        return cls(n_branches=4_000)

    @classmethod
    def full(cls) -> "Scale":
        """Default scale, identical to the benchmark suite's."""
        return cls()

    def as_dict(self) -> dict:
        return {
            "n_branches": self.n_branches,
            "warmup_branches": self.warmup_branches,
        }


@dataclass(frozen=True)
class ArtifactPayload:
    """What an artifact builder returns.

    Attributes:
        text: the rendered ASCII table/series (exactly what the matching
            benchmark emits to ``benchmarks/results/``).
        cells: flat machine-readable values, ``name -> finite number``.
        data: the underlying Python objects (summaries, result lists,
            model stats) for shape assertions in the benches; never
            serialized.
    """

    text: str
    cells: Mapping[str, float]
    data: Any = None


def no_grids(scale: Scale) -> dict:
    """The grid map of an artifact that runs no sweeps."""
    return {}


@dataclass(frozen=True)
class ArtifactSpec:
    """One registered paper artifact.

    Attributes:
        key: stable selector (``TABLE1``, ``FIG5``, ``APP_SMT_FETCH``...).
        title: one-line human description.
        paper_element: what it reproduces (``"Table 1"``, ``"§6.2"``,
            ``"beyond paper"``...).
        kind: one of :data:`ARTIFACT_KINDS`.
        description: longer context shown in PAPER_RESULTS.md.
        build: ``(service, scale) -> ArtifactPayload``; reads its
            sweep grids back from the service, which executed them.
        paper_values: expected paper numbers for a subset of the cells.
        grid_map: ``scale -> {label: ExperimentSpec}``, the grids the
            builder requests (application artifacts declare none).
    """

    key: str
    title: str
    paper_element: str
    kind: str
    description: str
    build: Callable[["SweepService", Scale], ArtifactPayload] = field(repr=False)
    paper_values: Mapping[str, float] = field(default_factory=dict)
    grid_map: Callable[[Scale], Mapping[Any, "ExperimentSpec"]] = field(
        default=no_grids, repr=False
    )

    def grids(self, scale: Scale) -> tuple["ExperimentSpec", ...]:
        """The sweep grids this artifact's builder requests at ``scale``."""
        return tuple(self.grid_map(scale).values())

    def __post_init__(self) -> None:
        if not self.key or self.key != self.key.upper():
            raise ValueError(f"artifact key must be non-empty upper-case, got {self.key!r}")
        if self.kind not in ARTIFACT_KINDS:
            raise ValueError(
                f"unknown artifact kind {self.kind!r}; choose from {ARTIFACT_KINDS}"
            )


def _is_finite_number(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def cell_deltas(
    cells: Mapping[str, float], paper_values: Mapping[str, float]
) -> dict[str, dict[str, float | None]]:
    """Per-cell repro-vs-paper drift for every cell the paper reports.

    ``ratio`` is None when the paper value is zero.  Cells missing from
    the measurement are skipped here — :meth:`ArtifactResult.validate`
    reports them as errors.
    """
    deltas: dict[str, dict[str, float | None]] = {}
    for name, expected in paper_values.items():
        if name not in cells:
            continue
        measured = cells[name]
        deltas[name] = {
            "repro": measured,
            "paper": expected,
            "delta": measured - expected,
            "ratio": (measured / expected) if expected else None,
        }
    return deltas


@dataclass(frozen=True)
class ArtifactResult:
    """A built artifact: payload plus provenance and drift accounting."""

    spec: ArtifactSpec
    scale: Scale
    text: str
    cells: dict[str, float]
    data: Any = field(default=None, repr=False, compare=False)

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def deltas(self) -> dict[str, dict[str, float | None]]:
        return cell_deltas(self.cells, self.spec.paper_values)

    def validate(self) -> list[str]:
        """Structural problems (empty = artifact is well-formed).

        * every cell value must be a finite number (no None/NaN/inf);
        * every expected paper cell must have a measured counterpart;
        * the rendered text must be non-empty.
        """
        problems: list[str] = []
        if not self.text.strip():
            problems.append(f"{self.key}: rendered text is empty")
        if not self.cells:
            problems.append(f"{self.key}: no cells")
        for name, value in self.cells.items():
            if not _is_finite_number(value):
                problems.append(f"{self.key}: cell {name!r} is not finite ({value!r})")
        for name in self.spec.paper_values:
            if name not in self.cells:
                problems.append(f"{self.key}: paper cell {name!r} has no measured value")
        return problems

    def as_json_dict(self) -> dict:
        """Deterministic plain-data form for ``paper_results.json``.

        Floats are rounded to 6 decimals for readability; determinism
        across runs comes from the simulation itself (cache-served
        re-runs return bit-identical results).
        """

        def _round(value: float | None) -> float | None:
            if value is None or isinstance(value, int):
                return value
            return round(value, 6)

        return {
            "title": self.spec.title,
            "paper_element": self.spec.paper_element,
            "kind": self.spec.kind,
            "description": self.spec.description,
            "cells": {name: _round(value) for name, value in self.cells.items()},
            "paper": {name: _round(value) for name, value in self.spec.paper_values.items()},
            "deltas": {
                name: {metric: _round(value) for metric, value in row.items()}
                for name, row in self.deltas.items()
            },
        }
