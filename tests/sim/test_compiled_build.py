"""The C kernel build path of :mod:`repro.sim.fast.compiled`.

The embedded C source is compiled once per digest of the source and
the compiler flags into ``$REPRO_COMPILED_CACHE`` and loaded through
ctypes; later resolutions
load the cached library without a compiler, and a box with neither a
compiler nor a cached library runs the pure kernels — silently unless
``REPRO_COMPILED_PROVIDER=cext`` required the C build.
"""

from __future__ import annotations

import hashlib
import warnings

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
    assert libraries == [f"repro_kernels_{_digest()}.so"]


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
        assert compiled.resolve_ogehl_kernel() is None
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
