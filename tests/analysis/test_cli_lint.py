"""`repro lint` CLI round-trips."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main

BAD = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)


@pytest.fixture
def project(tmp_path, monkeypatch):
    bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(BAD)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_list_rules(project, capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005"):
        assert rule_id in out


def test_findings_exit_1_and_render(project, capsys):
    assert main(["lint", "src"]) == 1
    out = capsys.readouterr().out
    assert "src/repro/sim/bad.py:5:12: RPR001" in out


def test_clean_run_exits_0(project, capsys):
    assert main(["lint", "src", "--rules", "RPR005"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_json_output_to_file(project, capsys):
    code = main([
        "lint", "src",
        "--format", "json", "--output", "lint.json",
    ])
    assert code == 1
    payload = json.loads((project / "lint.json").read_text())
    assert payload["summary"]["n_findings"] == 1
    assert "wrote lint.json" in capsys.readouterr().out


def test_sarif_format(project, capsys):
    assert main([
        "lint", "src", "--format", "sarif",
    ]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"


def test_unknown_rule_is_a_usage_error(project):
    with pytest.raises(SystemExit, match="RPR999"):
        main(["lint", "src", "--rules", "RPR999"])


def test_missing_path_is_a_usage_error(project):
    with pytest.raises(SystemExit, match="no such file"):
        main(["lint", "does-not-exist"])


def test_pyproject_defaults_are_read(project, capsys):
    """[tool.repro.lint] supplies the paths when none are given.

    On Python 3.10 (no tomllib) the built-in defaults happen to name the
    same paths, so the assertion holds either way.
    """
    (project / "pyproject.toml").write_text(
        '[tool.repro.lint]\npaths = ["src"]\n'
    )
    (project / "tools").mkdir()
    assert main(["lint"]) == 1
    assert "bad.py" in capsys.readouterr().out


def test_parse_error_exits_2(project, capsys):
    (project / "src" / "repro" / "sim" / "broken.py").write_text("def f(:\n")
    assert main(["lint", "src"]) == 2
    assert "RPR000" in capsys.readouterr().out


def test_pragma_is_the_way_to_sanction_a_finding(project, capsys):
    bad = project / "src" / "repro" / "sim" / "bad.py"
    bad.write_text(BAD.replace("time.time()", "time.time()  # repro: allow[RPR001]"))
    assert main(["lint", "src"]) == 0
    assert "0 finding(s) in 1 file(s) (1 pragma-suppressed)" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--baseline", "lint_baseline.json"], ["--no-baseline"], ["--update-baseline"],
])
def test_baseline_flags_are_refused(project, capsys, flags):
    with pytest.raises(SystemExit) as caught:
        main(["lint", "src", *flags])
    assert caught.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (project / "lint_baseline.json").exists()


def test_pyproject_baseline_key_sanctions_nothing(project, capsys):
    """A leftover ``baseline`` key in [tool.repro.lint] is not read."""
    entry = {"rule": "RPR001", "path": "src/repro/sim/bad.py",
             "symbol": "stamp", "message": "", "count": 1}
    (project / "lint_baseline.json").write_text(
        json.dumps({"version": 1, "entries": [entry]})
    )
    (project / "pyproject.toml").write_text(
        '[tool.repro.lint]\npaths = ["src"]\nbaseline = "lint_baseline.json"\n'
    )
    assert main(["lint"]) == 1
    assert "src/repro/sim/bad.py:5:12: RPR001" in capsys.readouterr().out
