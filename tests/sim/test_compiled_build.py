"""The C kernel build path of :mod:`repro.sim.fast.compiled`.

The embedded C source is compiled once per digest of the source and
the compiler flags into ``$REPRO_COMPILED_CACHE`` and loaded through
ctypes; later resolutions
load the cached library without a compiler, and a box with neither a
compiler nor a cached library runs the pure kernels — silently unless
``REPRO_COMPILED_PROVIDER=cext`` required the C build.  A cached
library loads only when its bytes match its SHA-256 sidecar: a
damaged one is quarantined and rebuilt, or reported as a typed
unavailability when no compiler can rebuild it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import FastBackendFallbackWarning
from repro.sim.engine import simulate
from repro.sim.fast import compiled, simulate_tage_fast


@pytest.fixture
def kernel_cache(monkeypatch, tmp_path):
    """An empty kernel cache and forgotten resolution state, restored
    (reloading the real cache on next use) after the test."""
    directory = tmp_path / "kernels"
    monkeypatch.setenv(compiled.CACHE_ENV, str(directory))
    monkeypatch.delenv(compiled.PROVIDER_ENV, raising=False)
    compiled._reset_provider_cache()
    compiled._reset_missing_warning()
    yield directory
    compiled._reset_provider_cache()
    compiled._reset_missing_warning()


@pytest.fixture
def no_compiler(monkeypatch):
    """Hide every C compiler from the build."""
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setattr(compiled.shutil, "which", lambda name: None)


def _require_compiler():
    if compiled._find_compiler() is None:
        pytest.skip("no C compiler on PATH")


def _digest() -> str:
    key = "\0".join([compiled._C_SOURCE, *compiled._C_FLAGS])
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def test_cache_env_picks_library_directory(kernel_cache):
    _require_compiler()
    assert compiled.active_provider() == "cext"
    libraries = sorted(path.name for path in kernel_cache.iterdir())
    library = f"repro_kernels_{_digest()}.so"
    assert libraries == [library, f"{library}.sha256"]
    sidecar = (kernel_cache / f"{library}.sha256").read_text().strip()
    assert sidecar == hashlib.sha256((kernel_cache / library).read_bytes()).hexdigest()


def test_second_resolution_loads_cached_library_without_compiler(
    kernel_cache, monkeypatch, tiny_trace
):
    _require_compiler()
    assert compiled.active_provider() == "cext"
    compiled._reset_provider_cache()

    def no_compile(*args, **kwargs):
        raise AssertionError("the cached library must load without a compiler")

    monkeypatch.setattr(compiled.subprocess, "run", no_compile)
    monkeypatch.setattr(compiled.shutil, "which", lambda name: None)
    assert compiled.active_provider() == "cext"
    assert compiled.resolve_tage_kernel() is not None
    fast = simulate_tage_fast(tiny_trace, TagePredictor(TageConfig.small()))
    assert fast == simulate(tiny_trace, TagePredictor(TageConfig.small()))


def test_missing_compiler_runs_pure_silently(kernel_cache, no_compiler,
                                             tiny_trace):
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        assert compiled.active_provider() is None
        assert compiled.resolve_tage_kernel() is None
        fast = simulate_tage_fast(tiny_trace, TagePredictor(TageConfig.small()))
    assert fast == simulate(tiny_trace, TagePredictor(TageConfig.small()))
    assert "no C compiler" in compiled.provider_unavailable_reason()
    assert not kernel_cache.exists()


def test_required_cext_without_compiler_warns_once(kernel_cache, no_compiler,
                                                   monkeypatch, tiny_trace):
    monkeypatch.setenv(compiled.PROVIDER_ENV, "cext")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert compiled.resolve_tage_kernel() is None
        assert compiled.resolve_sum_walk_kernel() is None
        fast = simulate_tage_fast(tiny_trace, TagePredictor(TageConfig.small()))
    fallbacks = [w for w in caught
                 if issubclass(w.category, FastBackendFallbackWarning)]
    assert len(fallbacks) == 1
    assert "no C compiler" in str(fallbacks[0].message)
    assert fast == simulate(tiny_trace, TagePredictor(TageConfig.small()))


def test_pinned_none_never_builds(kernel_cache, monkeypatch):
    monkeypatch.setenv(compiled.PROVIDER_ENV, "none")

    def no_compile(*args, **kwargs):
        raise AssertionError("REPRO_COMPILED_PROVIDER=none must not build")

    monkeypatch.setattr(compiled.subprocess, "run", no_compile)
    assert compiled.active_provider() is None
    assert not kernel_cache.exists()


SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = (
    "from repro.sim.fast import compiled\n"
    "print(compiled.active_provider())\n"
    "print(compiled.provider_unavailable_reason())\n"
)


def _run(cache: Path, argv: list[str], no_compiler: bool = False,
         tmp_path: Path | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter on the kernel cache ``cache``: a crash there
    (a bus error loading a damaged library) fails the test, not the run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env[compiled.CACHE_ENV] = str(cache)
    env.pop(compiled.PROVIDER_ENV, None)
    if no_compiler:
        env.pop("CC", None)
        empty = tmp_path / "no-compilers"
        empty.mkdir(exist_ok=True)
        env["PATH"] = str(empty)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=300)


def _damage(library: Path, how: str) -> None:
    data = bytearray(library.read_bytes())
    if how == "truncate":
        library.write_bytes(bytes(data[:4096]))
    else:
        data[len(data) // 2] ^= 0x40
        library.write_bytes(bytes(data))


@pytest.mark.parametrize("how", ["truncate", "bitflip"])
def test_damaged_cached_library_is_quarantined_and_rebuilt(tmp_path, how):
    _require_compiler()
    cache = tmp_path / "kernels"
    assert _run(cache, ["-c", _PROBE]).stdout.split("\n")[0] == "cext"
    library = cache / f"repro_kernels_{_digest()}.so"
    _damage(library, how)
    probe = _run(cache, ["-c", _PROBE])
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split("\n")[:2] == ["cext", "None"]
    assert (cache / f"{library.name}.corrupt").exists()
    sidecar = (cache / f"{library.name}.sha256").read_text().strip()
    assert hashlib.sha256(library.read_bytes()).hexdigest() == sidecar
    run = _run(cache, ["-m", "repro", "run-trace", "INT-1", "--branches",
                       "1000", "--backend", "fast"])
    assert run.returncode == 0, run.stderr


def test_damaged_cached_library_without_compiler_is_a_typed_refusal(tmp_path):
    _require_compiler()
    cache = tmp_path / "kernels"
    assert _run(cache, ["-c", _PROBE]).stdout.split("\n")[0] == "cext"
    _damage(cache / f"repro_kernels_{_digest()}.so", "truncate")
    probe = _run(cache, ["-c", _PROBE], no_compiler=True, tmp_path=tmp_path)
    assert probe.returncode == 0, probe.stderr
    provider, reason = probe.stdout.split("\n")[:2]
    assert provider == "None"
    assert "no C compiler" in reason and "failed its SHA-256 check" in reason
    run = _run(cache, ["-m", "repro", "run-trace", "INT-1", "--branches",
                       "1000", "--backend", "fast"],
               no_compiler=True, tmp_path=tmp_path)
    assert run.returncode == 0, run.stderr
