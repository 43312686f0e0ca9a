"""The CLI's printed surface, pinned byte for byte.

``repro --help``, every subcommand's ``--help`` and the refusals of a
bad ``--size``, ``--suite``, ``--backend``, an unknown trace name and a
missing trace file are part of the interface: scripts parse them and
users read them.  So are
the trace listings of ``list-traces`` and ``trace --list``, in order.  Each
case runs ``python -m repro`` in a fresh interpreter (the bytes a user
sees, exit code included) at a fixed 80-column terminal width, and must
match ``cli_surface.json`` exactly.

argparse writes the help texts and the refusals of a bad choice, and its
wording and wrapping change between Python minor versions, so those
cases are pinned once per minor version (``ARGPARSE_CASES``, under
``"argparse"`` → ``"3.11"``, ...).  On an interpreter with no recorded
surface they are skipped, naming the command that records one.  The
cases whose bytes ``repro`` itself writes are pinned once for every
version (under ``"repro"``).

Regenerate the fixture only for an intended interface change, or to
record the argparse surface of another minor version, on the
interpreter concerned::

    PYTHONPATH=src python tests/golden/test_cli_surface.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURE = Path(__file__).with_name("cli_surface.json")

SUBCOMMANDS = (
    "run-trace", "run-suite", "sweep", "paper", "gen-trace", "inspect",
    "trace", "list-traces", "capability", "lint", "serve", "drive",
)

#: Case name -> argv after ``python -m repro``, for the cases whose bytes
#: argparse writes.
ARGPARSE_CASES: dict[str, list[str]] = {
    "help": ["--help"],
    **{f"help:{command}": [command, "--help"] for command in SUBCOMMANDS},
    "bad-size:run-trace": ["run-trace", "FP-1", "--size", "2M"],
    "bad-size:run-suite": ["run-suite", "CBP1", "--size", "2M"],
    "bad-suite:run-suite": ["run-suite", "CBP9"],
    "bad-suite:sweep": ["sweep", "--suite", "CBP9"],
    "bad-backend:run-trace": ["run-trace", "FP-1", "--backend", "turbo"],
    "bad-backend:sweep": ["sweep", "--backend", "turbo"],
    "bad-backend:paper": ["paper", "--backend", "turbo"],
}

#: Case name -> argv, for the cases whose bytes ``repro`` writes.
REPRO_CASES: dict[str, list[str]] = {
    "unknown-trace:run-trace": ["run-trace", "NOPE-1", "--branches", "100"],
    "unknown-trace:gen-trace": ["gen-trace", "NOPE-1", "never-written.rtrc"],
    "unknown-trace:trace": ["trace", "--source", "NOPE-1", "--branches", "100"],
    "unknown-trace:sweep": ["sweep", "--traces", "NOPE-1", "--branches", "100",
                            "--no-cache"],
    "missing-trace-file:run-trace": ["run-trace", "file:never-written.rtrc",
                                     "--branches", "100"],
    "missing-trace-file:trace": ["trace", "--source", "file:never-written.rtrc",
                                 "--branches", "100"],
    "missing-trace-file:sweep": ["sweep", "--traces", "file:never-written.rtrc",
                                 "--branches", "100", "--no-cache"],
    "list-traces": ["list-traces"],
    "trace-list": ["trace", "--list"],
}


def run_case(argv: list[str], cwd: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["COLUMNS"] = "80"
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv], capture_output=True,
        cwd=cwd, env=env, timeout=120,
    )
    return {
        "argv": argv,
        "exit": result.returncode,
        "stdout": result.stdout.decode(),
        "stderr": result.stderr.decode(),
    }


#: The key of this interpreter's argparse surface in the fixture.
PYTHON = "%d.%d" % sys.version_info[:2]


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
                    f"record it with `python {Path(__file__).name}` on it")
    assert run_case(ARGPARSE_CASES[case], tmp_path) == surface[case]


if __name__ == "__main__":
    import tempfile

    fixture = (json.loads(FIXTURE.read_text(encoding="utf-8"))
               if FIXTURE.exists() else {"argparse": {}})
    with tempfile.TemporaryDirectory() as scratch:
        fixture["repro"] = {case: run_case(argv, Path(scratch))
                            for case, argv in REPRO_CASES.items()}
        fixture["argparse"][PYTHON] = {case: run_case(argv, Path(scratch))
                                       for case, argv in ARGPARSE_CASES.items()}
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE} (argparse surface for Python {PYTHON})")
