"""Engine behaviour: collection, pragmas, parse errors, order."""

from __future__ import annotations

import pytest

from repro.analysis import (
    PARSE_ERROR_RULE_ID,
    collect_files,
    get_rules,
    run_lint,
)

from tests.analysis.conftest import rule_hits

BAD = """
    import time

    def stamp():
        return time.time()
"""


def test_clean_file_is_clean(lint_files):
    report = lint_files({"src/repro/sim/ok.py": "x = 1\n"})
    assert report.findings == []
    assert report.exit_code == 0
    assert report.files_analyzed == 1


def test_finding_and_exit_code(lint_files):
    report = lint_files({"src/repro/sim/bad.py": BAD})
    assert rule_hits(report) == [("RPR001", 5)]
    assert report.exit_code == 1


def test_collect_skips_cache_dirs(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
    assert collect_files([tmp_path]) == [tmp_path / "pkg" / "a.py"]


def test_collect_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        collect_files([tmp_path / "nope"])


def test_parse_error_is_rpr000_exit_2(lint_files):
    report = lint_files({"src/repro/sim/broken.py": "def broken(:\n"})
    assert [f.rule for f in report.findings] == [PARSE_ERROR_RULE_ID]
    assert report.exit_code == 2


def test_same_line_pragma_suppresses(lint_files):
    report = lint_files({
        "src/repro/sim/bad.py": """
            import time

            def stamp():
                return time.time()  # repro: allow[RPR001]
        """,
    })
    assert report.findings == []
    assert [f.rule for f in report.pragma_suppressed] == ["RPR001"]


def test_line_above_pragma_suppresses(lint_files):
    report = lint_files({
        "src/repro/sim/bad.py": """
            import time

            def stamp():
                # repro: allow[RPR001] deliberate: wall time for a label
                return time.time()
        """,
    })
    assert report.findings == []
    assert [f.rule for f in report.pragma_suppressed] == ["RPR001"]


def test_pragma_for_other_rule_does_not_suppress(lint_files):
    report = lint_files({
        "src/repro/sim/bad.py": """
            import time

            def stamp():
                return time.time()  # repro: allow[RPR005]
        """,
    })
    assert rule_hits(report) == [("RPR001", 5)]


def test_findings_sorted_by_path_then_line(lint_files):
    report = lint_files({
        "src/repro/sim/b.py": BAD,
        "src/repro/sim/a.py": BAD,
    })
    assert [f.path for f in report.findings] == [
        "src/repro/sim/a.py", "src/repro/sim/b.py",
    ]


def test_get_rules_unknown_id_raises():
    with pytest.raises(ValueError, match="RPR999"):
        get_rules(["RPR999"])


def test_rule_selection_limits_run(lint_files):
    report = lint_files(
        {"src/repro/sim/bad.py": BAD},
        rules=["RPR005"],
    )
    assert report.findings == []


def test_paths_outside_root_fall_back_to_absolute(tmp_path):
    """Linting a tree that is not under the cwd root must not crash;
    scope matching still works on the absolute path."""
    path = tmp_path / "src" / "repro" / "sim" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text("import time\n\ndef f():\n    return time.time()\n")
    report = run_lint([tmp_path], root=tmp_path / "elsewhere")
    assert [f.rule for f in report.findings] == ["RPR001"]
    assert report.findings[0].path == path.resolve().as_posix()


def test_run_lint_single_file(tmp_path):
    path = tmp_path / "src" / "repro" / "sim" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text("import time\n\ndef f():\n    return time.time()\n")
    report = run_lint([path], root=tmp_path)
    assert [f.rule for f in report.findings] == ["RPR001"]
