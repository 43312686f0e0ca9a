"""Whole-trace history windows and folds, vectorized with NumPy.

The gshare index, the JRS confidence index and the TAGE/O-GEHL folded
histories depend only on the *resolved* outcomes of earlier branches —
never on predictions — so on the NumPy leg they are plain functions of
the outcome array and are computed for the whole trace up front.  The
C leg carries the same histories branch by branch inside its kernels
(:mod:`repro.sim.fast.compiled`) and never imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.common.bitops import mask

__all__ = [
    "history_windows",
    "segmented_history_windows",
    "folded_history_series",
    "fold_windows",
]


def history_windows(takens: np.ndarray, length: int) -> np.ndarray:
    """Global-history window seen *before* each branch, vectorized.

    ``windows[t]`` packs the ``length`` most recent outcomes prior to
    branch ``t`` with the newest outcome in bit 0 — exactly
    ``GlobalHistory(capacity=length).window(length)`` at that point of
    the reference loop (the register starts empty and is pushed after
    every branch).

    Built by doubling in ``ceil(log2(length))`` passes: the window of
    ``a + b`` outcomes is ``W_a[t] | (W_b[t - a] << a)``, and ``W_b`` is
    the low ``b`` bits of the ``a``-wide window already in hand.
    """
    if length <= 0:
        raise ValueError(f"history length must be positive, got {length}")
    n = len(takens)
    windows = np.zeros(n, dtype=np.int64)
    windows[1:] = takens[:-1]
    have = 1
    while have < min(length, n):
        step = min(have, length - have)
        windows[have:] |= (windows[:-have] & mask(step)) << have
        have += step
    return windows


def segmented_history_windows(
    segments: np.ndarray, takens: np.ndarray, length: int
) -> np.ndarray:
    """Per-*segment* history windows: outcomes of earlier branches that
    share the same segment value, newest in bit 0.

    ``windows[t]`` packs the ``length`` most recent outcomes among
    branches ``s < t`` with ``segments[s] == segments[t]`` — exactly the
    shift register a per-entry local-history table (one register per
    ``segments`` value, pushed after every access) exposes to access
    ``t``.  The accesses are grouped by segment (stable argsort keeps
    trace order within a group) and the windows built by the same
    doubling as :func:`history_windows`: a group is contiguous, so the
    ``W_b[p - a] << a`` term is added only where position ``p - a``
    still belongs to ``p``'s group.
    """
    if length <= 0:
        raise ValueError(f"history length must be positive, got {length}")
    n = len(segments)
    order = np.argsort(segments, kind="stable")
    grouped_segments = segments[order]
    outcomes = takens[order]
    grouped = np.zeros(n, dtype=np.int64)
    np.copyto(grouped[1:], outcomes[:-1],
              where=grouped_segments[1:] == grouped_segments[:-1])
    have = 1
    while have < min(length, n):
        step = min(have, length - have)
        same = grouped_segments[have:] == grouped_segments[:-have]
        contribution = (grouped[:-have] & mask(step)) << have
        np.bitwise_or(grouped[have:], contribution, out=grouped[have:], where=same)
        have += step
    windows = np.empty(n, dtype=np.int64)
    windows[order] = grouped
    return windows


def folded_history_series(
    outcomes: np.ndarray,
    length: int,
    width: int,
    *,
    unbounded_folds: dict[int, np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Folded-history value seen *before* each branch, in closed form.

    ``series[t]`` equals ``FoldedHistory.fold_window(window_t, length,
    width)`` where ``window_t`` packs the ``length`` outcomes before
    branch ``t`` (newest in bit 0) — the register value the reference
    predictor reads at that point.  A bit of age ``a`` lands at
    ``a % width``, so with ``G`` the fold of the *unbounded* history
    (:func:`_unbounded_fold`) the ``length``-bit fold is ``G[t]`` with
    the bits older than ``length`` xored back out — the
    insert-new-bit/evict-old-bit rule of
    :class:`~repro.common.history.FoldedHistory`::

        F[t] = G[t] ^ rotl_width(G[t - length], length % width)   (t >= length)
        F[t] = G[t]                                                (t <  length)

    The cost is independent of ``length``: ``G`` takes O(log width)
    passes, each fold O(1) more.  Callers folding several lengths of
    one trace pass the same ``unbounded_folds`` dict (keyed by width,
    filled on demand) to build each ``G`` once; ``out`` receives the
    series in place of a fresh array.
    """
    if width <= 0:
        raise ValueError(f"fold width must be positive, got {width}")
    if length <= 0:
        raise ValueError(f"history length must be positive, got {length}")
    if unbounded_folds is None:
        unbounded_folds = {}
    unbounded = unbounded_folds.get(width)
    if unbounded is None:
        unbounded = unbounded_folds[width] = _unbounded_fold(outcomes, width)
    n = len(unbounded)
    if out is None:
        out = np.empty(n, dtype=np.int64)
    out[:] = unbounded
    if length < n:
        evicted = unbounded[: n - length]
        turn = length % width
        if turn:
            rotated = evicted << turn
            rotated |= evicted >> (width - turn)
            rotated &= mask(width)
            evicted = rotated
        out[length:] ^= evicted
    return out


def _unbounded_fold(outcomes: np.ndarray, width: int) -> np.ndarray:
    """``G[t] = XOR_{a < t} outcomes[t-1-a] << (a % width)``: every
    earlier outcome folded into ``width`` bits.

    Ages ``a = r + k*width`` share position ``r``, so bit ``r`` of
    ``G[t]`` is ``S[t-1-r]`` for the stride-``width`` prefix xor
    ``S[u] = outcomes[u] ^ S[u - width]`` — one accumulate over a
    zero-padded ``(ceil(n/width), width)`` reshape — and ``G`` is the
    ``width``-bit :func:`history_windows` of ``S``.
    """
    n = len(outcomes)
    rows = -(-n // width)
    stride = np.zeros(rows * width, dtype=np.int64)
    stride[:n] = outcomes
    stride = np.bitwise_xor.accumulate(stride.reshape(rows, width), axis=0)
    return history_windows(stride.ravel()[:n], width)


def fold_windows(windows: np.ndarray, total_bits: int, width: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bitops.fold_bits` over window arrays.

    Xors successive ``width``-bit chunks of each ``total_bits``-wide
    window together.
    """
    if width <= 0:
        raise ValueError(f"fold width must be positive, got {width}")
    if total_bits <= 0:
        raise ValueError(f"total_bits must be positive, got {total_bits}")
    chunk_mask = mask(width)
    folded = np.zeros_like(windows)
    remaining = windows.copy()
    for _ in range((total_bits + width - 1) // width):
        folded ^= remaining & chunk_mask
        remaining >>= width
    return folded
