"""Exact vectorized counter-table scans (the NumPy leg's counter family).

Every per-branch counter update the fast backend supports is a
*clamp-add* function

    f(x) = min(max(x + b, lo), hi)

with integer parameters ``(b, lo, hi)``:

* saturating up   (bimodal/gshare taken update)      — ``(+1, 0, max)``;
* saturating down (bimodal/gshare not-taken update)  — ``(-1, 0, max)``;
* JRS increment on a correct prediction              — ``(+1, 0, max)``;
* JRS reset on a misprediction                       — ``( 0, 0, 0)``.

Clamp-add functions are closed under composition — for an earlier ``E``
and a later ``L``::

    (L ∘ E)(x) = clip(x + bE + bL,
                      clip(loE + bL, loL, hiL),
                      clip(hiE + bL, loL, hiL))

— and composition is associative, so the counter value a branch *reads*
(its table entry's state after all earlier accesses to the same entry)
is an exclusive segmented prefix scan of these transforms.  The scan is
computed with a Hillis–Steele sweep: group accesses by table index
(stable argsort keeps trace order within a group), then
``ceil(log2(chunk))`` fully vectorized compose passes.  Everything is
int64 arithmetic — no floating point, no approximation — which is what
makes the fast backend bit-for-bit equivalent to the per-branch
reference loops (``tests/sim/test_fast_scan.py`` checks the scan against
a naive sequential oracle; ``tests/equivalence/`` checks whole
simulations).

:class:`CounterTable` carries table state across chunks so arbitrarily
long traces are processed in bounded-memory chunks with identical
results for every chunk size.

The scan runs only on the NumPy leg, when the C build does not
resolve: with it the counter walk of :mod:`repro.sim.fast.counter_core`
steps the same counters branch by branch, and
``tests/equivalence/test_compiled_differential.py`` checks both legs
against the reference engine.
"""

from __future__ import annotations

import numpy as np

from repro.sim.fast.arrays import DEFAULT_CHUNK_SIZE

__all__ = [
    "compose",
    "apply_transform",
    "segmented_inclusive_scan",
    "saturating_transforms",
    "resetting_transforms",
    "CounterTable",
    "scanned_counters",
]


def compose(
    b_early: np.ndarray,
    lo_early: np.ndarray,
    hi_early: np.ndarray,
    b_late: np.ndarray,
    lo_late: np.ndarray,
    hi_late: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compose clamp-add transforms elementwise: result(x) = late(early(x))."""
    b = b_early + b_late
    lo = np.clip(lo_early + b_late, lo_late, hi_late)
    hi = np.clip(hi_early + b_late, lo_late, hi_late)
    return b, lo, hi


def apply_transform(b: np.ndarray, lo: np.ndarray, hi: np.ndarray, x) -> np.ndarray:
    """Apply clamp-add transforms to states ``x`` elementwise."""
    return np.clip(x + b, lo, hi)


def segmented_inclusive_scan(
    seg: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inclusive prefix scan (by composition) within runs of equal ``seg``.

    ``seg`` must be *grouped* — equal values contiguous, as produced by a
    stable sort — so position ``t`` belongs to the same segment as
    ``t - d`` exactly when ``seg[t] == seg[t - d]``.  The input transform
    arrays are consumed (updated in place) and returned.
    """
    n = len(seg)
    distance = 1
    while distance < n:
        valid = seg[distance:] == seg[:-distance]
        if not valid.any():
            # No remaining pair spans a segment: every segment is shorter
            # than ``distance`` and the scan is already complete.
            break
        nb, nlo, nhi = compose(
            b[:-distance], lo[:-distance], hi[:-distance],
            b[distance:], lo[distance:], hi[distance:],
        )
        b[distance:][valid] = nb[valid]
        lo[distance:][valid] = nlo[valid]
        hi[distance:][valid] = nhi[valid]
        distance <<= 1
    return b, lo, hi


def saturating_transforms(
    up: np.ndarray, max_value: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-branch transforms of an unsigned saturating counter in [0, max].

    ``up`` selects increment (else decrement); both clamps are expressed
    against the full [0, max] range, which agrees with the one-sided
    reference updates on every reachable state.
    """
    n = len(up)
    b = np.where(up, np.int64(1), np.int64(-1))
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, max_value, dtype=np.int64)
    return b, lo, hi


def resetting_transforms(
    correct: np.ndarray, max_value: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-branch transforms of a JRS resetting counter.

    Correct prediction: saturating increment.  Misprediction: reset to 0,
    encoded as the constant function ``clip(x + 0, 0, 0)``.
    """
    b = correct.astype(np.int64)
    lo = np.zeros(len(correct), dtype=np.int64)
    hi = np.where(correct, np.int64(max_value), np.int64(0))
    return b, lo, hi


class CounterTable:
    """A vectorized counter table processed chunk by chunk.

    Holds one int64 state per table entry (initialized to ``init``) and
    advances it through successive chunks of (index, transform) accesses,
    returning for each access the state it *read* — exactly what the
    per-branch reference loop's ``predict``/``assess`` sees.
    """

    def __init__(self, n_entries: int, init: int) -> None:
        if n_entries <= 0:
            raise ValueError(f"n_entries must be positive, got {n_entries}")
        self.state = np.full(n_entries, init, dtype=np.int64)

    def lookup_scan(
        self,
        indices: np.ndarray,
        b: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> np.ndarray:
        """Process one chunk of accesses in trace order.

        Returns the counter value each access reads (the entry state
        before its own update) and leaves ``self.state`` advanced past
        the whole chunk.
        """
        n = len(indices)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        order = np.argsort(indices, kind="stable")
        seg = indices[order]
        sb, slo, shi = segmented_inclusive_scan(seg, b[order], lo[order], hi[order])

        starts = np.empty(n, dtype=bool)
        starts[0] = True
        starts[1:] = seg[1:] != seg[:-1]
        entry_state = self.state[seg]

        # Exclusive scan: a segment's first access reads the carried-in
        # entry state; later accesses apply the previous inclusive value.
        before = np.empty(n, dtype=np.int64)
        before[starts] = entry_state[starts]
        cont = ~starts
        cont_tail = cont[1:]
        before[cont] = apply_transform(
            sb[:-1][cont_tail], slo[:-1][cont_tail], shi[:-1][cont_tail],
            entry_state[cont],
        )

        ends = np.empty(n, dtype=bool)
        ends[-1] = True
        ends[:-1] = seg[1:] != seg[:-1]
        self.state[seg[ends]] = apply_transform(
            sb[ends], slo[ends], shi[ends], entry_state[ends]
        )

        out = np.empty(n, dtype=np.int64)
        out[order] = before
        return out


def scanned_counters(
    n_entries: int,
    init: int,
    indices: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Counter value read by every access of a whole trace, chunked.

    Results are independent of ``chunk_size`` (a property test sweeps
    it); the chunking only bounds the scan working set.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    table = CounterTable(n_entries, init)
    n = len(indices)
    if n <= chunk_size:
        return table.lookup_scan(indices, b, lo, hi)
    parts = [
        table.lookup_scan(
            indices[start:start + chunk_size],
            b[start:start + chunk_size],
            lo[start:start + chunk_size],
            hi[start:start + chunk_size],
        )
        for start in range(0, n, chunk_size)
    ]
    return np.concatenate(parts)
