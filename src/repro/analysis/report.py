"""Reporters: render one :class:`~repro.analysis.engine.LintReport`.

Three formats, all deterministic (findings arrive pre-sorted, JSON is
emitted with sorted keys, nothing embeds timestamps or absolute paths):

* **text** — human-oriented ``path:line:col: RULE message`` lines plus a
  summary, for terminals and CI logs;
* **json** — the full report as plain data, uploaded as a CI artifact
  and consumed by tooling;
* **sarif** — SARIF 2.1.0, the interchange format code-scanning UIs
  ingest; one run, one result per finding, rule metadata attached to
  the driver.
"""

from __future__ import annotations

import json

from repro.analysis.engine import LintReport
from repro.analysis.rules import RULES

__all__ = ["render_text", "render_json", "render_sarif", "REPORT_FORMATS"]

REPORT_FORMATS = ("text", "json", "sarif")

_TOOL_NAME = "repro-lint"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(report: LintReport) -> str:
    lines = [finding.render() for finding in report.findings]
    lines.append("")
    lines.append(
        f"{len(report.findings)} finding(s) in {report.files_analyzed} "
        f"file(s) ({len(report.pragma_suppressed)} pragma-suppressed)"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    payload = {
        "version": 2,
        "tool": _TOOL_NAME,
        "findings": [finding.as_dict() for finding in report.findings],
        "pragma_suppressed": [
            finding.as_dict() for finding in report.pragma_suppressed
        ],
        "summary": {
            "files_analyzed": report.files_analyzed,
            "n_findings": len(report.findings),
            "n_pragma_suppressed": len(report.pragma_suppressed),
            "exit_code": report.exit_code,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_sarif(report: LintReport) -> str:
    rules = [
        {
            "id": rule.rule_id,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
        }
        for rule in RULES
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": f"{finding.message} [{finding.symbol}]"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in report.findings
    ]
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
