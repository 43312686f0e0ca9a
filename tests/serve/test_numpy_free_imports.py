"""The CLI and serve import path stays free of numpy.

``repro serve`` starts through :mod:`repro.cli` and steps tenants with
the reference per-branch engine; loading numpy there would add ~12 MB
of resident memory and tens of milliseconds of start-up to every
server for nothing.  The fast backend imports numpy lazily, only when
an offline kernel actually runs, and so do :mod:`repro.traces`'
readers.  A fresh interpreter is the only honest check: this test
process has long since imported numpy through other tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("modules", [
    ("repro.cli", "repro.serve.server"),
    ("repro.traces", "repro.traces.io", "repro.traces.sources.replay"),
])
def test_import_path_loads_no_numpy(modules):
    code = (
        "import sys\n"
        + "".join(f"import {module}\n" for module in modules)
        + "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    assert result.stdout.strip() == "False", (
        f"importing {', '.join(modules)} pulled numpy into the process"
    )
