"""Rule registry: every analyzer the engine can run, keyed by stable ID.

Adding a rule means writing a :class:`~repro.analysis.rules.base.FileRule`
or :class:`~repro.analysis.rules.base.ProjectRule` subclass and listing
it in :data:`RULES`; the engine, CLI (``--rules``) and reporters
handle it from there.  IDs are append-only — a retired rule's ID is
never reused, so old pragmas keep meaning what they meant.
"""

from __future__ import annotations

from repro.analysis.rules.base import FileRule, ProjectRule, Rule
from repro.analysis.rules.concurrency import ConcurrencyRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.hygiene import HygieneRule
from repro.analysis.rules.parity import ParityRule
from repro.analysis.rules.spec_hash import SpecHashRule

__all__ = [
    "RULES",
    "FileRule",
    "ProjectRule",
    "Rule",
    "get_rules",
    "rule_ids",
]

#: Every registered rule class, in rule-ID order.
RULES: tuple[type[Rule], ...] = (
    DeterminismRule,
    SpecHashRule,
    ConcurrencyRule,
    ParityRule,
    HygieneRule,
)


def rule_ids() -> tuple[str, ...]:
    return tuple(rule.rule_id for rule in RULES)


def get_rules(ids: tuple[str, ...] | list[str] | None = None) -> list[Rule]:
    """Instantiate the selected rules (all of them when ``ids`` is None)."""
    if ids is None:
        return [rule() for rule in RULES]
    wanted = {token.strip().upper() for token in ids}
    unknown = wanted - set(rule_ids())
    if unknown:
        raise ValueError(
            f"unknown rule ID(s) {sorted(unknown)}; "
            f"available: {', '.join(rule_ids())}"
        )
    return [rule() for rule in RULES if rule.rule_id in wanted]
