"""RPR004 fixtures: fingerprint drift, structure errors, normalization."""

from __future__ import annotations

from repro.analysis.rules.parity import group_fingerprint

from tests.analysis.conftest import rule_hits


def _sides(pure_body: str, c_body: str, fingerprint: str) -> dict[str, str]:
    return {
        "src/repro/sim/fast/kernel.py": (
            f"# repro: parity-begin demo/pure fingerprint={fingerprint}\n"
            f"{pure_body}"
            "# repro: parity-end demo/pure\n"
        ),
        "src/repro/sim/fast/compiled.py": (
            'SOURCE = """\n'
            f"/* repro: parity-begin demo/c fingerprint={fingerprint} */\n"
            f"{c_body}"
            "/* repro: parity-end demo/c */\n"
            '"""\n'
        ),
    }


PURE = "def kernel(x):\n    return x + 1\n"
C = "int kernel(int x) { return x + 1; }\n"


def _expected(pure_body: str = PURE, c_body: str = C) -> str:
    return group_fingerprint({
        "pure": "\n".join(
            line.strip() for line in pure_body.splitlines() if line.strip()
        ),
        "c": "\n".join(
            line.strip() for line in c_body.splitlines() if line.strip()
        ),
    })


def test_matching_fingerprints_are_clean(lint_files):
    report = lint_files(_sides(PURE, C, _expected()), rules=["RPR004"])
    assert report.findings == []


def test_changing_one_side_flags_every_side(lint_files):
    changed = "def kernel(x):\n    return x + 2\n"
    report = lint_files(_sides(changed, C, _expected()), rules=["RPR004"])
    assert [f.rule for f in report.findings] == ["RPR004", "RPR004"]
    new = _expected(pure_body=changed)
    for finding in report.findings:
        assert f"fingerprint={new}" in finding.message


def test_reformatting_is_fingerprint_neutral(lint_files):
    reformatted = "def kernel(x):\n\n        return x + 1\n"
    report = lint_files(
        _sides(reformatted, C, _expected()), rules=["RPR004"],
    )
    assert report.findings == []


def test_missing_fingerprint_fires(lint_files):
    files = _sides(PURE, C, _expected())
    files["src/repro/sim/fast/kernel.py"] = (
        "# repro: parity-begin demo/pure\n"
        f"{PURE}"
        "# repro: parity-end demo/pure\n"
    )
    report = lint_files(files, rules=["RPR004"])
    assert any("missing its" in f.message for f in report.findings)


def test_unclosed_region_fires(lint_files):
    report = lint_files({
        "src/repro/sim/fast/kernel.py": (
            "# repro: parity-begin demo/pure fingerprint=00000000\n"
            f"{PURE}"
        ),
    }, rules=["RPR004"])
    assert any("never closed" in f.message for f in report.findings)


def test_end_without_begin_fires(lint_files):
    report = lint_files({
        "src/repro/sim/fast/kernel.py": (
            f"{PURE}"
            "# repro: parity-end demo/pure\n"
        ),
    }, rules=["RPR004"])
    assert any(
        "without a matching parity-begin" in f.message
        for f in report.findings
    )


def test_single_sided_group_fires(lint_files):
    report = lint_files({
        "src/repro/sim/fast/kernel.py": (
            "# repro: parity-begin demo/pure fingerprint=00000000\n"
            f"{PURE}"
            "# repro: parity-end demo/pure\n"
        ),
    }, rules=["RPR004"])
    assert any("single side" in f.message for f in report.findings)


def test_duplicate_side_fires(lint_files):
    files = _sides(PURE, C, _expected())
    files["src/repro/sim/fast/extra.py"] = (
        "# repro: parity-begin demo/pure fingerprint=00000000\n"
        "x = 1\n"
        "# repro: parity-end demo/pure\n"
    )
    report = lint_files(files, rules=["RPR004"])
    assert any("defined twice" in f.message for f in report.findings)


def test_repo_kernels_carry_current_fingerprints():
    """The committed fast kernels are stamped with their live values
    (the ``trace-synth`` group's pure sides live in ``repro.traces``)."""
    from pathlib import Path

    from repro.analysis import get_rules, run_lint

    root = Path(__file__).resolve().parents[2]
    report = run_lint(
        [root / "src" / "repro" / "sim" / "fast", root / "src" / "repro" / "traces"],
        root=root,
        rules=get_rules(["RPR004"]),
    )
    assert report.findings == [], [f.render() for f in report.findings]
