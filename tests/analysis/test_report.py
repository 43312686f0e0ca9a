"""Reporter outputs: text, JSON and SARIF shapes are stable and valid."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    render_json,
    render_sarif,
    render_text,
    rule_ids,
)

BAD = """
    import time

    def stamp():
        return time.time()
"""


@pytest.fixture
def report(lint_files):
    return lint_files({"src/repro/sim/bad.py": BAD})


def test_text_report_lines(report):
    text = render_text(report)
    assert "src/repro/sim/bad.py:5:12: RPR001" in text
    assert text.endswith("1 finding(s) in 1 file(s) (0 pragma-suppressed)")


def test_json_report_schema(report):
    payload = json.loads(render_json(report))
    assert payload["version"] == 2
    assert payload["tool"] == "repro-lint"
    assert set(payload) == {
        "version", "tool", "findings", "pragma_suppressed", "summary",
    }
    assert set(payload["summary"]) == {
        "files_analyzed", "n_findings", "n_pragma_suppressed", "exit_code",
    }
    assert payload["summary"]["n_findings"] == 1
    assert payload["summary"]["exit_code"] == 1
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message", "symbol"}
    assert finding["rule"] == "RPR001"
    assert finding["symbol"] == "stamp"


def test_json_report_is_deterministic(report):
    assert render_json(report) == render_json(report)


def test_sarif_report_schema(report):
    payload = json.loads(render_sarif(report))
    assert payload["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in payload["$schema"]
    (run,) = payload["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert [rule["id"] for rule in driver["rules"]] == list(rule_ids())
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
    (result,) = run["results"]
    assert result["ruleId"] == "RPR001"
    assert result["level"] == "error"
    (location,) = result["locations"]
    region = location["physicalLocation"]["region"]
    assert region["startLine"] == 5
    assert region["startColumn"] == 12
    uri = location["physicalLocation"]["artifactLocation"]["uri"]
    assert uri == "src/repro/sim/bad.py"


def test_sarif_clean_report_has_no_results(lint_files):
    report = lint_files({"src/repro/sim/ok.py": "x = 1\n"})
    payload = json.loads(render_sarif(report))
    assert payload["runs"][0]["results"] == []


def test_reports_count_pragma_suppressed(lint_files):
    report = lint_files({
        "src/repro/sim/bad.py": BAD.replace(
            "time.time()", "time.time()  # repro: allow[RPR001]"
        ),
    })
    assert render_text(report).endswith(
        "0 finding(s) in 1 file(s) (1 pragma-suppressed)"
    )
    payload = json.loads(render_json(report))
    assert payload["findings"] == []
    assert [f["rule"] for f in payload["pragma_suppressed"]] == ["RPR001"]
    assert payload["summary"]["n_pragma_suppressed"] == 1
    assert payload["summary"]["exit_code"] == 0
