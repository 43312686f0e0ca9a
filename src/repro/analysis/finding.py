"""The unit of analyzer output: one :class:`Finding` per violated invariant.

A finding is pure data — rule ID, location, enclosing symbol, message —
ordered deterministically (path, line, column, rule) so reports are
byte-stable across runs and machines.  The ``symbol`` (dotted enclosing
class/function chain, ``<module>`` at top level) tells a reader which
definition a finding sits in without opening the file.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "PARSE_ERROR_RULE_ID"]

#: Pseudo-rule for files the engine cannot parse; reported as a finding
#: so it shows up in every output format, but escalated to exit code 2
#: by the CLI (a syntax error means the run was incomplete, not clean).
PARSE_ERROR_RULE_ID = "RPR000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: stable rule ID (``RPR001`` ... ``RPR005``; ``RPR000`` for
            parse failures).
        path: file path relative to the analysis root, POSIX separators.
        line: 1-based line of the violation.
        col: 0-based column (matching :mod:`ast` conventions).
        message: human-readable description, stable across runs —
            no absolute paths, timestamps or memory addresses.
        symbol: innermost enclosing ``Class.method`` chain, or
            ``<module>``.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = "<module>"

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule} {self.message} [{self.symbol}]"
        )
