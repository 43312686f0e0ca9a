"""The CLI's printed surface, pinned byte for byte.

The cases, the way each one runs and the recorder live in
:mod:`tests.golden.cli_cases`, which needs no pytest.  A Python minor
version with no recorded argparse surface skips those cases, naming the
command that records one.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from tests.golden.cli_cases import (
    ARGPARSE_CASES,
    FIXTURE,
    PYTHON,
    REPRO_CASES,
    run_case,
)


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned["repro"]) == sorted(REPRO_CASES)
    assert pinned["argparse"]
    for surface in pinned["argparse"].values():
        assert sorted(surface) == sorted(ARGPARSE_CASES)


@pytest.mark.parametrize("case", sorted(REPRO_CASES))
def test_repro_surface_is_byte_identical(case, pinned, tmp_path):
    assert run_case(REPRO_CASES[case], tmp_path) == pinned["repro"][case]


@pytest.mark.parametrize("case", sorted(ARGPARSE_CASES))
def test_argparse_surface_is_byte_identical(case, pinned, tmp_path):
    surface = pinned["argparse"].get(PYTHON)
    if surface is None:
        pytest.skip(f"no argparse surface recorded for Python {PYTHON}; "
                    "record it with `PYTHONPATH=src python "
                    "tests/golden/cli_cases.py` on it")
    assert run_case(ARGPARSE_CASES[case], tmp_path) == surface[case]


def test_cases_module_needs_no_pytest():
    """The recorder runs on interpreters that have no pytest installed."""
    blocker = (
        "import sys; sys.modules['pytest'] = None; "
        "import cli_cases; print(len(cli_cases.REPRO_CASES))"
    )
    result = subprocess.run(
        [sys.executable, "-c", blocker], capture_output=True, text=True,
        cwd=FIXTURE.parent, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(len(REPRO_CASES))
