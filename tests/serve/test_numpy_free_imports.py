"""The CLI and serve path stays free of numpy.

``repro serve`` starts through :mod:`repro.cli` and steps multi-class
tenants on the TAGE kernel through the numpy-free
:mod:`repro.sim.fast.tage_core` and :mod:`repro.sim.fast.compiled`
(``ctypes`` over :class:`array.array` blocks for the C build, plain
lists for the pure kernels); loading numpy there would add ~12 MB of
resident memory and tens of milliseconds of start-up to every server
for nothing.  The rest of the fast backend imports numpy lazily, only
when an offline kernel actually runs, and so do :mod:`repro.traces`'
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


def _fresh_interpreter(code: str, **env_overrides: str | None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for name, value in env_overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    return result.stdout.strip()


@pytest.mark.parametrize("modules", [
    ("repro.cli", "repro.serve.server"),
    ("repro.sim.fast.compiled", "repro.sim.fast.tage_core"),
    ("repro.traces", "repro.traces.io", "repro.traces.sources.replay"),
])
def test_import_path_loads_no_numpy(modules):
    code = (
        "import sys\n"
        + "".join(f"import {module}\n" for module in modules)
        + "print('numpy' in sys.modules)\n"
    )
    assert _fresh_interpreter(code) == "False", (
        f"importing {', '.join(modules)} pulled numpy into the process"
    )


@pytest.mark.parametrize("provider", [None, "none"])
def test_tage_session_steps_without_numpy(provider):
    """A multi-class session steps a batch on the kernel the provider
    policy picks (the C build when unset, the pure kernels under
    ``none``) and never loads numpy doing it."""
    code = (
        "import sys\n"
        "from repro.serve.state import SessionSpec, TenantSession\n"
        "from repro.sim.fast import compiled\n"
        "session = TenantSession(SessionSpec(tenant='t', predictor='tage-16K'))\n"
        "pcs = [0x400000 + 4 * (i % 37) for i in range(300)]\n"
        "takens = bytes((i * 7) % 3 == 0 for i in range(300))\n"
        "predictions, codes = session.observe_batch(pcs, takens)\n"
        "assert len(predictions) == len(codes) == 300\n"
        "assert session.stats()['observed'] == 300\n"
        "print(compiled.active_provider(), 'numpy' in sys.modules)\n"
    )
    provider_name, numpy_loaded = _fresh_interpreter(
        code, REPRO_COMPILED_PROVIDER=provider
    ).split()
    assert numpy_loaded == "False"
    if provider == "none":
        assert provider_name == "None"


def test_reference_step_paths_run_without_numpy():
    """A binary session and the offline reference replays — binary and
    adaptive — step through the reference engine without loading
    numpy."""
    code = (
        "import sys\n"
        "from repro.serve.driver import offline_decisions\n"
        "from repro.serve.state import SessionSpec, TenantSession\n"
        "from repro.traces.types import Trace\n"
        "pcs = [0x400000 + 4 * (i % 37) for i in range(300)]\n"
        "takens = bytes((i * 7) % 3 == 0 for i in range(300))\n"
        "binary = SessionSpec(tenant='b', predictor='gshare', estimator='jrs')\n"
        "session = TenantSession(binary)\n"
        "predictions, codes = session.observe_batch(pcs, takens)\n"
        "assert len(predictions) == len(codes) == 300\n"
        "assert session.stats()['observed'] == 300\n"
        "trace = Trace('t', pcs, takens, [5] * 300)\n"
        "assert len(offline_decisions(binary, trace)) == 300\n"
        "adaptive = SessionSpec(tenant='a', predictor='tage-16K-prob',\n"
        "                       estimator='tage', adaptive=True)\n"
        "assert len(offline_decisions(adaptive, trace)) == 300\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _fresh_interpreter(code) == "False"
