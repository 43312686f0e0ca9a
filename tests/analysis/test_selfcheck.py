"""The lint gate holds on the repository itself.

These are the acceptance checks for the whole subsystem: the committed
tree lints clean, and the two canonical
regressions — ambient nondeterminism in the engine, a spec field
dropped from the hash — are caught the moment they are introduced.
"""

from __future__ import annotations

import shutil

from repro.analysis import get_rules, render_text, run_lint

from tests.analysis.conftest import repo_root

ROOT = repo_root()


def test_repo_lints_clean():
    """Findings are fixed or carry an inline pragma; nothing else
    sanctions one."""
    report = run_lint([ROOT / "src", ROOT / "tools"], root=ROOT)
    assert report.exit_code == 0, render_text(report)


def test_injected_wall_clock_in_engine_fails_lint(tmp_path):
    target = tmp_path / "src" / "repro" / "sim" / "engine.py"
    target.parent.mkdir(parents=True)
    shutil.copy(ROOT / "src" / "repro" / "sim" / "engine.py", target)
    with target.open("a") as handle:
        handle.write(
            "\n\ndef _stamp():\n"
            "    import datetime\n"
            "    return datetime.datetime.now()\n"
        )
    report = run_lint(
        [target], root=tmp_path, rules=get_rules(["RPR001"]),
    )
    assert [f.rule for f in report.findings] == ["RPR001"]
    assert "datetime.datetime.now" in report.findings[0].message


def test_dropped_hashed_field_fails_lint(tmp_path):
    target = tmp_path / "src" / "repro" / "sweep" / "spec.py"
    target.parent.mkdir(parents=True)
    source = (ROOT / "src" / "repro" / "sweep" / "spec.py").read_text()
    assert '"seed": self.seed,' in source
    target.write_text(source.replace('"seed": self.seed,', "", 1))
    report = run_lint(
        [target], root=tmp_path, rules=get_rules(["RPR002"]),
    )
    seed_findings = [f for f in report.findings if "'seed'" in f.message]
    assert seed_findings, [f.render() for f in report.findings]


def test_engine_is_currently_clean(tmp_path):
    """Control for the injection test: the unmodified engine passes."""
    report = run_lint(
        [ROOT / "src" / "repro" / "sim" / "engine.py"],
        root=ROOT,
        rules=get_rules(["RPR001"]),
    )
    assert report.findings == []
