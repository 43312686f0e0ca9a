"""Precomputed TAGE index/tag planes and their on-disk store.

The whole reason TAGE admits a fast backend at all: every tagged
component's table **index and tag depend only on the branch PC and the
resolved outcome/path histories — never on predictions**.  The folded
history registers are linear over GF(2) in the live history bits (a bit
of age ``a`` contributes at position ``a % compressed_length``; see
:meth:`repro.common.history.FoldedHistory.fold_window`), so the folded
value *every* branch of a trace will observe can be computed up front
in closed form instead of per-branch shift-register updates: the fold
of the *unbounded* history is built once per folded width, and every
history length is that fold with its evicted tail xored out (see
:func:`repro.sim.fast.arrays.folded_history_series`), so a plane set
costs the same whatever its history lengths.  What is left for the
sequential kernel (:mod:`repro.sim.fast.tage`) is only the genuinely
prediction-dependent part: provider selection, counter/u updates and
allocation.

A :class:`TagePlanes` object packs, per trace × geometry, one int64 row
each for the PCs, the outcomes, the bimodal indices and the per-component
index/tag planes.  Configurations that differ only in counter
automaton, counter widths or seeds share the same planes (see
:meth:`repro.predictors.tage.config.TageConfig.component_geometries`),
and one lockstep pass advances all of them over the same rows.  Offline
runs never hold a whole trace's planes: :mod:`repro.sim.fast.tage`
builds one chunk of branches at a time, so plane memory stays at one
chunk whatever the trace length.  With the C build its carried-history
``tage-planes`` builder writes the chunks; :func:`compute_planes` is
the builder without it (called on each chunk over a window reaching
back the geometry's longest history) and the closed form the
differential suites check both builders against.  :class:`PlaneCache`
stores whole-trace rows as a single ``.npy`` file and serves repeat
requests as read-only memmaps; no simulation path reads it, and it
stays only because ``perfbench/tracing.py`` wraps it by name.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.common.bitops import mask
from repro.sim.backends import FastBackendUnsupported, default_planes_dir
from repro.sim.fast.arrays import (
    MAX_WINDOW_BITS,
    TraceArrays,
    fold_windows,
    folded_history_series,
    history_windows,
)
from repro.sim.fast.tage_core import plane_geometry

__all__ = [
    "PLANES_VERSION",
    "MAX_PATH_HISTORY_BITS",
    "TagePlanes",
    "plane_geometry",
    "compute_planes",
    "PlaneCache",
    "default_planes_dir",
]

#: Bump on any change to the plane layout or the hash arithmetic, so a
#: stale on-disk materialization can never be served.
PLANES_VERSION = 1

#: Longest path-history register whose packed per-branch window fits an
#: int64 lane (one shared bound for every window-based kernel — see
#: :data:`repro.sim.fast.arrays.MAX_WINDOW_BITS`).
MAX_PATH_HISTORY_BITS = MAX_WINDOW_BITS


@dataclass(frozen=True)
class TagePlanes:
    """Packed per-branch lookup rows of one trace × geometry.

    ``data`` rows, all int64, each of trace length ``n``:

    ====================  =================================================
    row                   contents
    ====================  =================================================
    ``0``                 branch PCs
    ``1``                 resolved outcomes (0/1)
    ``2``                 bimodal table indices
    ``3 .. 2+M``          tagged component indices (T1..TM)
    ``3+M .. 2+2M``       tagged component tags (T1..TM)
    ====================  =================================================
    """

    geometry: tuple
    data: np.ndarray


def compute_planes(arrays: TraceArrays, geometry: tuple) -> TagePlanes:
    """Materialize every TAGE table lookup of ``arrays`` — a whole trace
    or one chunk's window of it, as if the history before it were empty.

    Raises:
        FastBackendUnsupported: when a component's path window exceeds
            the packed int64 width (the reference engine has no bound).
    """
    log_bimodal, components = geometry
    n = len(arrays)
    n_tagged = len(components)
    outcomes = arrays.takens.astype(np.int64)
    pcs = arrays.pcs

    data = np.empty((3 + 2 * n_tagged, n), dtype=np.int64)
    data[0] = pcs
    data[1] = outcomes
    pc_part = pcs >> 2
    data[2] = pc_part & mask(log_bimodal)

    max_path_bits = max((path_bits for *_, path_bits in components), default=1)
    if max_path_bits > MAX_PATH_HISTORY_BITS:
        raise FastBackendUnsupported(
            f"TAGE path history of {max_path_bits} bits exceeds the "
            f"vectorized window width ({MAX_PATH_HISTORY_BITS} bits)"
        )
    path_windows = history_windows(pcs & 1, max_path_bits)

    # One unbounded fold per distinct width, shared by every component
    # and all three foldings (index, tag, tag - 1) of this call.
    unbounded_folds: dict[int, np.ndarray] = {}
    for slot, (table_number, log_entries, tag_bits, length, path_bits) in enumerate(
        components
    ):
        index_row = folded_history_series(
            outcomes, length, log_entries,
            unbounded_folds=unbounded_folds, out=data[3 + slot],
        )
        index_row ^= pc_part
        index_row ^= pc_part >> (table_number + 1)
        index_row ^= fold_windows(path_windows & mask(path_bits), path_bits, log_entries)
        index_row &= mask(log_entries)

        tag_row = folded_history_series(
            outcomes, length, tag_bits,
            unbounded_folds=unbounded_folds, out=data[3 + n_tagged + slot],
        )
        folded_tag_b = folded_history_series(
            outcomes, length, max(tag_bits - 1, 1), unbounded_folds=unbounded_folds
        )
        folded_tag_b <<= 1
        tag_row ^= folded_tag_b
        tag_row ^= pc_part
        tag_row &= mask(tag_bits)
    return TagePlanes(geometry=geometry, data=data)


class PlaneCache:
    """Memmap-backed store of computed planes, one ``.npy`` per key.

    The key digests the plane format version, the package version, the
    trace identity (name, length and a content digest of the PC/outcome
    columns) and the geometry, so behaviour changes and trace-generator
    changes both invalidate naturally.  Writes are atomic (temp file +
    ``os.replace``): concurrent sweep workers race benignly — the first
    writer wins and everyone else memmaps its file.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_planes_dir()
        self.hits = 0
        self.misses = 0

    def key(self, arrays: TraceArrays, geometry: tuple) -> str:
        content = hashlib.sha256()
        content.update(np.ascontiguousarray(arrays.pcs).tobytes())
        content.update(np.ascontiguousarray(arrays.takens).tobytes())
        from repro import __version__  # local import: repro imports sim

        identity = repr((
            PLANES_VERSION,
            __version__,
            arrays.name,
            len(arrays),
            content.hexdigest(),
            geometry,
        ))
        return hashlib.sha256(identity.encode()).hexdigest()[:32]

    def path(self, arrays: TraceArrays, geometry: tuple) -> Path:
        return self.root / f"{self.key(arrays, geometry)}.npy"

    def load(self, arrays: TraceArrays, geometry: tuple) -> TagePlanes | None:
        """The memmapped materialization, or None on miss/corruption."""
        path = self.path(arrays, geometry)
        n_tagged = len(geometry[1])
        try:
            data = np.load(path, mmap_mode="r")
        except (OSError, ValueError, EOFError):
            # EOFError: np.load on a zero-byte/truncated file (e.g. a
            # crash between creat and the data hitting disk).
            return None
        if data.shape != (3 + 2 * n_tagged, len(arrays)) or data.dtype != np.int64:
            return None
        return TagePlanes(geometry=geometry, data=data)

    def store(self, arrays: TraceArrays, geometry: tuple, planes: TagePlanes) -> None:
        """Atomically persist a computed plane set."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(arrays, geometry)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".npy.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, planes.data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def load_or_compute(self, arrays: TraceArrays, geometry: tuple) -> TagePlanes:
        """Serve from disk when possible, else compute and persist."""
        planes = self.load(arrays, geometry)
        if planes is not None:
            self.hits += 1
            return planes
        planes = compute_planes(arrays, geometry)
        self.store(arrays, geometry, planes)
        self.misses += 1
        return planes

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.npy"))
