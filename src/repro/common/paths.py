"""Default on-disk locations.

A stdlib-only leaf, so the CLI parser (which prints the default in its
help), the sweep result cache and the fast backend's plane store all
read one definition without importing each other or NumPy.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["CACHE_DIR_ENV", "default_cache_dir"]

#: Environment override for the sweep result cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``.repro-cache/sweeps`` under the cwd."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(".repro-cache") / "sweeps"
