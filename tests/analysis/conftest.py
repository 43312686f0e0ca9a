"""Fixture helpers for the static-analysis tests.

Every rule test builds a tiny throwaway project tree under ``tmp_path``
(paths chosen so the scope filters match the real layout, e.g.
``src/repro/sim/...``) and runs :func:`repro.analysis.run_lint` over
it.  ``lint_files`` returns the full report; ``rule_hits`` flattens it
to ``(rule, line)`` pairs for terse assertions.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import LintReport, get_rules, run_lint


@pytest.fixture
def lint_files(tmp_path):
    def _lint(
        files: dict[str, str], rules: list[str] | None = None,
    ) -> LintReport:
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text), encoding="utf-8")
        return run_lint(
            [tmp_path],
            root=tmp_path,
            rules=get_rules(rules) if rules is not None else None,
        )

    return _lint


def rule_hits(report: LintReport) -> list[tuple[str, int]]:
    return [(finding.rule, finding.line) for finding in report.findings]


def repo_root() -> Path:
    return Path(__file__).resolve().parents[2]
