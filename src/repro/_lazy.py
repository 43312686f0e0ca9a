"""Lazy re-exports for package ``__init__`` modules.

Every package of :mod:`repro` re-exports the public names of its
submodules, but a command only needs a few of them: ``repro serve``
never touches the sweep broker, ``repro trace --list`` never builds a
predictor.  A package therefore declares its exports here instead of
importing them, and each name's submodule loads on the name's first
lookup (PEP 562 module ``__getattr__``); the resolved value is then
cached in the package namespace, so later lookups cost a dict hit.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]],
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps a module — relative to the package when it starts
    with ``"."`` — to the names the package re-exports from it, in
    ``__all__`` order.  Call it from the package's ``__init__``::

        __all__, __getattr__, __dir__ = lazy_exports(__name__, {
            ".engine": ("simulate", "simulate_binary"),
        })
    """
    owners = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owners))

    return list(owners), __getattr__, __dir__
