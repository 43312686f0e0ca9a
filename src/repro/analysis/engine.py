"""The analysis engine: file collection, rule execution, suppression.

:func:`run_lint` is the single entry point the CLI, CI job and tests
share.  It collects ``*.py`` files under the given paths (sorted, so
reports are byte-stable), parses each once into a shared
:class:`~repro.analysis.source.SourceFile`, runs every selected rule,
then drops the findings an inline ``# repro: allow[RPRnnn]`` pragma
sanctions (the policy lives next to the code it sanctions).  Files that
fail to parse surface as ``RPR000`` findings — an unparseable file means
the run was incomplete, never clean, and the CLI escalates it to exit
code 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.finding import PARSE_ERROR_RULE_ID, Finding
from repro.analysis.rules import get_rules
from repro.analysis.rules.base import Rule
from repro.analysis.source import SourceFile

__all__ = ["LintReport", "collect_files", "run_lint"]

_SKIP_DIRS = {"__pycache__", ".git", ".repro-cache"}


@dataclass
class LintReport:
    """Everything one lint run produced, pre-sorted and pre-partitioned."""

    findings: list[Finding] = field(default_factory=list)  # active (failing)
    pragma_suppressed: list[Finding] = field(default_factory=list)
    files_analyzed: int = 0

    @property
    def parse_errors(self) -> list[Finding]:
        return [f for f in self.findings if f.rule == PARSE_ERROR_RULE_ID]

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        """0 clean, 1 findings, 2 incomplete (parse failures)."""
        if self.parse_errors:
            return 2
        return 0 if self.clean else 1


def collect_files(paths: list[Path]) -> list[Path]:
    """Python files under the given files/directories, sorted, deduped."""
    collected: set[Path] = set()
    for path in paths:
        if path.is_file():
            collected.add(path.resolve())
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = set(candidate.parts)
                if parts & _SKIP_DIRS or any(
                    part.startswith(".") and part not in (".", "..")
                    for part in candidate.parts
                ):
                    continue
                collected.add(candidate.resolve())
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(collected)


def run_lint(
    paths: list[Path],
    root: Path,
    rules: list[Rule] | None = None,
) -> LintReport:
    """Run the selected rules over ``paths``; see the module docstring."""
    root = root.resolve()
    rules = get_rules() if rules is None else rules
    sources = [SourceFile(path, root) for path in collect_files(paths)]

    raw: list[Finding] = []
    for sf in sources:
        if sf.parse_error is not None:
            raw.append(
                Finding(
                    rule=PARSE_ERROR_RULE_ID, path=sf.rel, line=1, col=0,
                    message=sf.parse_error,
                )
            )
    parsed = [sf for sf in sources if sf.tree is not None]
    for rule in rules:
        raw.extend(rule.check_project(parsed))

    by_rel = {sf.rel: sf for sf in sources}
    active: list[Finding] = []
    pragma_suppressed: list[Finding] = []
    for finding in raw:
        sf = by_rel.get(finding.path)
        if sf is not None and sf.is_allowed(finding.rule, finding.line):
            pragma_suppressed.append(finding)
        else:
            active.append(finding)

    return LintReport(
        findings=sorted(active, key=lambda f: f.sort_key),
        pragma_suppressed=sorted(pragma_suppressed, key=lambda f: f.sort_key),
        files_analyzed=len(sources),
    )
