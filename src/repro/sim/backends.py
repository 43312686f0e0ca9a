"""Simulation backend selection.

Two engines can execute a (trace, predictor, estimator) cell:

* ``"reference"`` — the pure-Python step function
  :func:`repro.sim.engine.step_batch`; supports every predictor and
  estimator and is the semantic ground truth.
* ``"fast"`` — the batch backend in :mod:`repro.sim.fast`; runs the
  full TAGE family (with the multi-class observation estimator and the
  §6.2 adaptive saturation controller) as a lean sequential kernel over
  index/tag planes, the bimodal/gshare/local predictors and the
  JRS-style binary confidence counters as one counter walk (or
  vectorized scans), and the sum-based perceptron/O-GEHL predictors
  (with their storage-free self-confidence estimators) as one sum walk
  (or NumPy dot-product kernels) — all bit-for-bit
  equivalent to the reference engine (enforced by
  ``tests/equivalence/``).

A configuration the fast backend cannot run exactly (a subclass of a
supported component type, >62-bit gshare/perceptron/local/JRS/path
history windows, or a cell whose leg needs NumPy on an install without
it) raises :class:`FastBackendUnsupported` internally; the dispatching
entry points catch it, emit a :class:`FastBackendFallbackWarning` and
run the reference engine, so ``backend="fast"`` is always safe to
request.

This module is dependency-free on purpose: the sweep spec layer and the
CLI import the backend names and validators from here.  NumPy is
needed only by the fast backend's NumPy leg (every cell without a C
compiler); with one, every fast cell runs on the C kernels without it
(:mod:`repro.sim.fast.capability`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.common.paths import default_cache_dir

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "FastBackendUnsupported",
    "FastBackendFallbackWarning",
    "Cell",
    "Capability",
    "Backend",
    "get_backend",
    "validate_backend",
    "load_fast_engine",
    "default_planes_dir",
]

#: The selectable simulation backends.
BACKENDS = ("reference", "fast")

#: Backend used when the caller does not choose.
DEFAULT_BACKEND = "reference"


class FastBackendUnsupported(RuntimeError):
    """The fast backend cannot execute this configuration bit-exactly.

    Raised by :mod:`repro.sim.fast` for predictors/estimators that resist
    vectorization, for a NumPy-leg cell when NumPy is unavailable, and
    for a trace the NumPy leg cannot hold; callers catch it and fall
    back to the reference engine.
    """


class FastBackendFallbackWarning(RuntimeWarning):
    """``backend="fast"`` was requested but the reference engine ran."""


def validate_backend(backend: str) -> str:
    """Return ``backend`` unchanged, or raise for an unknown name."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    return backend


@dataclass(frozen=True)
class Cell:
    """One simulation cell, as a backend sees it: a predictor with an
    optional estimator and §6.2 controller, run through either the
    accuracy protocol or (``binary=True``) the binary-confidence
    protocol of ``simulate_binary``.

    This is the single argument shape of :meth:`Backend.capability` —
    component *instances*, not spec strings, because support decisions
    are exact-type and configuration-bound (a subclassed predictor or
    an oversized history window changes the answer).
    """

    predictor: object
    estimator: object | None = None
    controller: object | None = None
    binary: bool = False


@dataclass(frozen=True)
class Capability:
    """A backend's answer to "can you run this cell, and how?".

    ``supported`` is the verdict; ``reason`` explains a refusal in the
    exact wording the fallback warning uses; ``fallback`` names the
    backend that will silently take over (the reference engine never
    refuses, so its capabilities carry no fallback).  ``compiled``
    reports whether the C kernel build would execute this cell under
    the current ``REPRO_COMPILED_PROVIDER`` setting, with
    ``compiled_provider`` naming the provider (``cext``);
    ``lockstep`` reports whether the cell can join a multi-cell
    lockstep batch (shared-plane TAGE cells).

    Truthiness is the verdict: ``if backend.capability(cell): ...``.
    """

    backend: str
    supported: bool
    reason: str | None = None
    fallback: str | None = None
    compiled: bool = False
    compiled_provider: str | None = None
    lockstep: bool = False

    def __bool__(self) -> bool:
        return self.supported


class Backend:
    """A named simulation backend answering capability queries.

    The one fallback-decision surface: every dispatcher (the
    ``simulate``/``simulate_binary`` wrappers, the sweep executor's
    warn-once pre-pass, the serve layer, the CLI) asks
    :meth:`capability` instead of re-deriving support rules, so they
    can never disagree.
    """

    name: str = "?"

    def capability(self, cell: Cell) -> Capability:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class _ReferenceBackend(Backend):
    """The pure-Python engine: runs everything, compiles nothing."""

    name = "reference"

    def capability(self, cell: Cell) -> Capability:
        return Capability(backend=self.name, supported=True)


class _FastBackend(Backend):
    """The compiled/vectorized engine; NumPy is probed per cell, only
    for a cell whose leg needs it."""

    name = "fast"

    def capability(self, cell: Cell) -> Capability:
        try:
            fast = load_fast_engine()
        except FastBackendUnsupported as error:
            return Capability(
                backend=self.name,
                supported=False,
                reason=str(error),
                fallback="reference",
            )
        return fast.cell_capability(cell)


_BACKEND_OBJECTS = {
    "reference": _ReferenceBackend(),
    "fast": _FastBackend(),
}


def get_backend(name: str) -> Backend:
    """The :class:`Backend` singleton for a validated backend name."""
    return _BACKEND_OBJECTS[validate_backend(name)]


def default_planes_dir() -> Path:
    """Default root of a :class:`~repro.sim.fast.planes.PlaneCache`:
    ``planes/`` inside the default sweep result cache root
    (:func:`repro.common.paths.default_cache_dir`)."""
    return default_cache_dir() / "planes"


def load_fast_engine():
    """Import and return :mod:`repro.sim.fast` (its names load lazily).

    This loads no NumPy: each cell's leg decides that.
    :meth:`Backend.capability` refuses a cell whose leg needs NumPy on
    an install without it (reason ``NumPy is unavailable``), and the C
    leg — TAGE and the bimodal/gshare/local/JRS family with the C build —
    never imports it.

    Raises:
        FastBackendUnsupported: when the fast package itself cannot be
            imported (the caller falls back to the reference engine
            instead of crashing).
    """
    try:
        from repro.sim import fast
    except ImportError as error:  # pragma: no cover - part of the package
        raise FastBackendUnsupported(f"the fast backend is unavailable ({error})") from error
    return fast
