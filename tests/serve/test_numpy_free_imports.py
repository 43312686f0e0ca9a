"""The CLI and serve path stays free of numpy.

``repro serve`` starts through :mod:`repro.cli` and steps multi-class
tenants on the TAGE kernel through the numpy-free
:mod:`repro.sim.fast.tage_core` and :mod:`repro.sim.fast.compiled`
(``ctypes`` over :class:`array.array` blocks for the C build, plain
lists for the pure kernels); loading numpy there would add ~12 MB of
resident memory and tens of milliseconds of start-up to every server
for nothing.  Offline, the fast backend's C leg — every supported cell
with the C build — runs from the traces' packed columns without numpy
too, so a whole ``repro paper --quick`` or a sweep of every predictor
family loads it in no process; only a NumPy-leg cell (any cell without
a C compiler) imports it, and on an install without numpy that cell
falls back with one typed warning.  A fresh
interpreter is the only honest check: this test process has long since
imported numpy through other tests.
"""

from __future__ import annotations

import hashlib
import json
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


# -- whole runs with NumPy blocked -----------------------------------------

#: Makes ``import numpy`` raise ImportError in this process and in every
#: worker it forks, as on an install without NumPy.
_BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None\n"

_SWEEP_GRID = [
    "sweep", "--backend", "fast", "--workers", "2", "--no-cache", "--tsv",
    "--predictors", "tage-16K", "tage-64K", "bimodal", "gshare", "local",
    "perceptron", "ogehl",
    "--estimators", "tage", "jrs", "ejrs", "self",
    "--traces", "INT-1", "zoo.markov", "--branches", "2000",
]


def _cli(argv: list[str], block_numpy: bool, **env: str | None):
    """Run ``repro.cli.main(argv)`` in a fresh interpreter; returns the
    completed process (stdout, stderr, returncode)."""
    code = (
        (_BLOCK_NUMPY if block_numpy else "import sys\n")
        + "import warnings\nwarnings.simplefilter('default')\n"
        + "from repro.cli import main\n"
        + f"code = main({argv!r})\n"
        + "sys.stdout.flush()\n"
        + "sys.exit(code)\n"
    )
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([full_env["PYTHONPATH"]] if full_env.get("PYTHONPATH") else [])
    )
    for name, value in env.items():
        if value is None:
            full_env.pop(name, None)
        else:
            full_env[name] = value
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=full_env, timeout=300)


def _require_cext():
    from repro.sim.fast import compiled

    if compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")


def _rows(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if "\t" in line]


def test_compiled_sweep_runs_without_numpy():
    """TAGE, the bimodal/gshare/local/JRS family and perceptron/O-GEHL
    under JRS, eJRS and self-confidence run on the C leg: with NumPy
    blocked in the parent and both pooled workers, a fast sweep over a
    CBP and a zoo trace exits 0, warns nothing, and prints the rows of
    the same grid run with NumPy allowed."""
    _require_cext()
    blocked = _cli(_SWEEP_GRID, block_numpy=True, REPRO_COMPILED_PROVIDER="cext")
    assert blocked.returncode == 0, blocked.stderr
    assert "Warning" not in blocked.stderr and "fallback" not in blocked.stdout
    allowed = _cli(_SWEEP_GRID, block_numpy=False, REPRO_COMPILED_PROVIDER="cext")
    assert allowed.returncode == 0, allowed.stderr
    assert _rows(blocked.stdout) == _rows(allowed.stdout)
    assert len(_rows(blocked.stdout)) == 1 + 2 * (2 * 3 + 3 * 2 + 2 * 3)


def test_compiled_paper_run_loads_no_numpy(tmp_path):
    """``repro paper --quick`` is TAGE and gshare×JRS cells only: with
    NumPy blocked it runs on the C leg in every process and writes the
    pinned reports byte for byte."""
    _require_cext()
    expected = json.loads(
        (SRC.parent / "perfbench" / "expected.json").read_text()
    )["paper-cold"]["digests"]
    run = _cli(["paper", "--quick", "--backend", "fast", "--workers", "2",
                "--no-cache", "--out", str(tmp_path)],
               block_numpy=True, REPRO_COMPILED_PROVIDER="cext")
    assert run.returncode == 0, run.stderr
    assert "Warning" not in run.stderr
    for name, digest in expected.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("predictor,estimator", [
    ("perceptron", "self"), ("ogehl", "jrs"), ("local", "jrs"),
], ids=["perceptron-self", "ogehl-jrs", "local-jrs"])
def test_numpy_leg_cells_fall_back_without_numpy(predictor, estimator):
    """A cell whose leg needs NumPy — any cell without the C kernels —
    falls back to the reference engine with one typed warning naming
    NumPy, and still gives the reference rows."""
    grid = ["sweep", "--backend", "fast", "--workers", "1", "--no-cache",
            "--tsv", "--predictors", predictor, "--estimators", estimator,
            "--traces", "INT-1", "FP-1", "--branches", "1000"]
    blocked = _cli(grid, block_numpy=True, REPRO_COMPILED_PROVIDER="none")
    assert blocked.returncode == 0, blocked.stderr
    warned = [line for line in blocked.stderr.splitlines()
              if "FastBackendFallbackWarning" in line]
    assert len(warned) == 1, blocked.stderr
    assert "NumPy is unavailable" in warned[0]
    reference = _cli([*grid[:2], "reference", *grid[3:]], block_numpy=True)
    assert _rows(blocked.stdout) == _rows(reference.stdout)


@pytest.mark.parametrize("provider", ["cext", "none"])
def test_sum_cell_results_unpickle_without_numpy(tmp_path, provider):
    """A sweep's result-cache entries hold no NumPy object on either leg:
    perfbench's child unpickles every entry before it reads its peak
    RSS, so one NumPy scalar in a result would load NumPy back into the
    process.  The perceptron/O-GEHL cells' entries unpickle with NumPy
    blocked."""
    if provider == "cext":
        _require_cext()
    cache = tmp_path / "cache"
    run = _cli(["sweep", "--backend", "fast", "--workers", "1",
                "--cache-dir", str(cache), "--predictors", "perceptron",
                "ogehl", "--estimators", "jrs", "ejrs", "self", "--traces",
                "INT-1", "--branches", "1000"],
               block_numpy=False, REPRO_COMPILED_PROVIDER=provider)
    assert run.returncode == 0, run.stderr
    code = (
        _BLOCK_NUMPY
        + "import pickle\nfrom pathlib import Path\n"
        + f"paths = sorted(Path({str(cache)!r}).glob('*.pkl'))\n"
        + "for path in paths:\n"
        + "    with path.open('rb') as handle:\n"
        + "        pickle.load(handle)\n"
        + "print(len(paths))\n"
    )
    assert _fresh_interpreter(code) == "6"
