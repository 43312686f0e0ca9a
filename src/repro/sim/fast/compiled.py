"""Compiled C builds of the fast-backend inner loops.

The fast backend's remaining per-branch cost is five genuinely
sequential kernels: the TAGE loop and the TAGE batch plane builder
(:mod:`repro.sim.fast.tage_core`), the O-GEHL and perceptron loops in
:mod:`repro.sim.fast.gehl` and the clamp-add counter-table walk in
:mod:`repro.sim.fast.scan` (bimodal, gshare, local and JRS/eJRS).  A
sixth twin is trace synthesis: one-shot
``SyntheticWorkload(spec).generate(n)`` of :mod:`repro.traces.workload`
(static branches, routines, every kernel built eagerly, the routine
walk), which :func:`repro.traces.workload.synthesize` runs for every
CBP trace name; the 40 quick CBP traces take ~7 ms instead of ~0.17 s on
a 2-core x86-64 box (``BENCH_synthesis_twin.json``).  The resumable
workload objects, the zoo sources and ``zoo.phase``'s resumed segments
stay pure.  Each exists in exactly two translations:

* **pure** — the Python/NumPy kernels in those modules (list-based
  loops for TAGE and O-GEHL, the lockstep perceptron, the segmented
  prefix scan): the reference, and the fallback when no C compiler is
  present;
* **c** — the embedded C mirror below, compiled once per source digest
  with the system C compiler into a cached shared library
  (``REPRO_COMPILED_CACHE`` overrides the cache directory) and called
  through :mod:`ctypes`.

Kernel choice is one policy, owned by this module and read from
``REPRO_COMPILED_PROVIDER``:

* unset — the C build when it builds, else the pure kernels, silently
  (the two are bit-identical, so there is nothing to warn about);
* ``cext`` — require the C build; when it cannot build, emit one
  :class:`~repro.sim.backends.FastBackendFallbackWarning` per process
  and run the pure kernels;
* ``none`` — pin the pure reference (tests and benchmarks).

Because the env var inherits into sweep worker processes, one setting
governs a whole parallel sweep.  The ``resolve_*_kernel`` functions
return the C callable or None, and callers branch only on None.
Resolution is lazy and memoized, so the build probe runs at most once
per process.  This module imports nothing but the standard library:
the C callables take NumPy arrays, :class:`array.array` blocks and
``bytes``/``bytearray`` columns alike, so the serving layer drives the
TAGE kernels without loading NumPy.

The TAGE kernel runs one cell per call over *caller-owned* state: the
``ST_*`` block below holds every table, the random-source states, the
§5/§6.2 counters and the branch tick, and the kernel resumes from it
and leaves it advanced.  Its plane rows come from the ``tage_planes``
builder, which carries its own history block across calls (the
``GP_*`` geometry row and ``HS_*`` history block below): an offline run
powers both blocks on and makes one call of each per plane chunk of
the trace; a served tenant keeps them and makes one call of each per
request batch.

Each C kernel is a *translation* of a reference loop and carries
parity markers — ``repro: parity-begin <group>/<side>
fingerprint=<8 hex>`` / ``repro: parity-end <group>/<side>`` — around
the translated region (as ``/* */`` comments inside the C source; the
pure sides use ``#`` comments, and markers are matched on raw lines,
so both work).  Six groups live here, each with its ``c`` side below:
``tage-batch`` and ``tage-planes`` (side ``pure`` in
:mod:`repro.sim.fast.tage_core`), ``ogehl-run`` and ``perceptron-run``
(``pure`` in :mod:`repro.sim.fast.gehl`), ``counter-scan``
(``pure`` in :mod:`repro.sim.fast.scan`) and ``trace-synth`` (``pure``
in :mod:`repro.traces.workload`, ``pure-kernels`` in
:mod:`repro.traces.kernels`).  Every side records the same
group-wide fingerprint (a CRC-32 of all sides' whitespace-normalized
contents), so ``repro lint`` rule RPR004 fails the moment one
translation changes alone; the fix is to update every side, re-run the
differential suites (``tests/equivalence/``; ``tests/traces/`` for
``trace-synth``), and stamp the new fingerprint the finding prints
onto each.

The synthesis twin's floats must round as CPython's do: it compares
``(draw >> 11) / 2**53`` against doubles, computes ``lo + (hi - lo) *
f`` with no fused multiply-add (the build passes
``-ffp-contract=off``), and takes the category and Zipf routine CDFs
from the pure helpers, because ``sum`` of floats rounds differently
across CPython versions.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from array import array
from pathlib import Path

from repro.sim.backends import FastBackendFallbackWarning

__all__ = [
    "COMPILED_PROVIDERS",
    "active_provider",
    "provider_unavailable_reason",
    "resolve_tage_kernel",
    "resolve_ogehl_kernel",
    "resolve_counter_scan_kernel",
    "resolve_perceptron_kernel",
    "warn_missing_compiled",
    "resolve_tage_planes_kernel",
    "resolve_trace_synth_kernel",
    "N_IPARAMS",
    "N_FPARAMS",
    "N_COUNTS",
]

#: The one kernel knob: unset | ``cext`` | ``none`` (module docstring).
PROVIDER_ENV = "REPRO_COMPILED_PROVIDER"
#: Where compiled shared libraries are cached (default ~/.cache).
CACHE_ENV = "REPRO_COMPILED_CACHE"

COMPILED_PROVIDERS = ("cext",)

# ---------------------------------------------------------------------------
# Packed per-cell layout of the TAGE kernel.
#
# One int64 row (N_IPARAMS wide) plus one float64 row (N_FPARAMS wide)
# carry everything the kernel reads from the config/estimator/
# controller objects; one int64 state block (ST_* slots, then the
# tables) carries everything it reads *and* advances.  The numpy-free
# `tage_core.cell_params` packs the rows, `tage_core.power_on` fills a
# fresh block from them, and the C build reads both — the literal
# indices below are the ABI.
# ---------------------------------------------------------------------------

IP_LOG_TAGGED = 0      # log2 entries per tagged component
IP_CMAX = 1            # prediction counter ceiling
IP_CMIN = 2            # prediction counter floor
IP_U_MAX = 3           # useful-counter ceiling
IP_U_RESET = 4         # graceful u aging period
IP_USE_ALT_ENABLED = 5  # USE_ALT_ON_NA monitor enabled (0/1)
IP_USE_ALT_MAX = 6     # monitor ceiling
IP_USE_ALT_MIN = 7     # monitor floor
IP_UPDATE_ALT = 8      # update_alt_when_u_zero (0/1)
IP_RANDOMIZED = 9      # randomized allocation start (0/1)
IP_PROB_ENABLED = 10   # §6 probabilistic saturation automaton (0/1)
IP_PROB_K = 11         # power-on sat-prob log2 (live automaton value)
IP_LFSR_SEED = 12      # §6 LFSR power-on state, already masked/defaulted
IP_ALLOC_SEED = 13     # XorShift32 power-on state, already masked/defaulted
IP_EST_WINDOW = 14     # §5 BIM-miss window; -1 = no estimator
IP_MAX_STRENGTH = 15   # (1 << ctr_bits) - 1 of the estimator's predictor
IP_WARMUP = 16         # branches (by tick) excluded from class counts
IP_CTRL_WINDOW = 17    # §6.2 controller window; 0 = no controller
IP_CTRL_MIN = 18       # controller sat-prob floor
IP_CTRL_MAX = 19       # controller sat-prob ceiling
IP_HIGH_MASK = 20      # bitmask of HIGH-confidence class codes
IP_LOG_BIMODAL = 21    # log2 bimodal entries
IP_N_TAGGED = 22       # tagged components
N_IPARAMS = 23

FP_CTRL_TARGET = 0     # §6.2 target misses per kilo-prediction
FP_CTRL_RELAX = 1      # §6.2 relax fraction
N_FPARAMS = 2

ST_USE_ALT = 0         # USE_ALT_ON_NA monitor
ST_LFSR = 1            # §6 LFSR state
ST_ALLOC = 2           # allocation XorShift32 state
ST_PROB_K = 3          # live sat-prob log2 (the §6.2 controller moves it)
ST_SINCE_MISS = 4      # §5 branches since the last bimodal miss (capped)
ST_CTRL_HIGH = 5       # §6.2 high-confidence predictions this window
ST_CTRL_MISP = 6       # §6.2 of which mispredicted
ST_TICK = 7            # branches run so far (drives u aging and warmup)
ST_COUNTS = 8          # [8..23] the N_COUNTS CT_* counts, accumulated
ST_TABLES = 24         # then ctr, tag, u (n_tagged << log_tagged each), bimodal

CT_MISPREDICTIONS = 0  # [0]
CT_PRED_BASE = 1       # [1..7]  per-class prediction counts
CT_MISP_BASE = 8       # [8..14] per-class misprediction counts
CT_FINAL_PROB_K = 15   # [15]    live sat-prob log2 (-1: not probabilistic)
N_COUNTS = 16

# The batch plane builder's geometry row (`tage_core.plane_params`):
# four scalars, then GP_STRIDE values per tagged component, T1..TM.
GP_N_TAGGED = 0        # tagged components
GP_LOG_BIMODAL = 1     # log2 bimodal entries
GP_PATH_BITS = 2       # path register width (widest component window)
GP_CAPACITY = 3        # outcome ring length (longest history)
GP_COMPONENTS = 4      # (table_number, log_entries, tag_bits, length, path_bits)
GP_STRIDE = 5

# Its carried history block (`tage_core.history_power_on`): two scalars,
# the 3 * n_tagged folded registers (index folds T1..TM, tag folds,
# tag-minus-one folds), then the GP_CAPACITY-entry outcome ring.
HS_PATH = 0            # path register (low PC bit per branch)
HS_HEAD = 1            # ring slot the next outcome goes to
HS_FOLDS = 2


# The trace-synthesis rows (`traces.workload.synthesize` packs them):
# int64 n_static, n_routines, then the (lo, hi) pairs of routine_len,
# routine_repeat, loop_trips, pattern_len, parity_depth,
# history_fn_depth and insts_per_branch; float64 transition_locality,
# correlated_noise, strong_bias (lo, hi), noisy_bias (lo, hi), then the
# eight-entry category CDF in KernelMix.as_items order.
N_SYNTH_IPARAMS = 16
N_SYNTH_FPARAMS = 14


def state_words(iparams) -> int:
    """int64 words in the ``ST_*`` state block of a cell's ``iparams``."""
    return (ST_TABLES
            + (3 * iparams[IP_N_TAGGED] << iparams[IP_LOG_TAGGED])
            + (1 << iparams[IP_LOG_BIMODAL]))


def history_words(gparams) -> int:
    """int64 words in the ``HS_*`` history block of a ``gparams`` row."""
    return HS_FOLDS + 3 * gparams[GP_N_TAGGED] + gparams[GP_CAPACITY]


# ---------------------------------------------------------------------------
# C mirrors of the pure kernels (statement for statement for TAGE and
# O-GEHL; the sequential loops the NumPy perceptron and scan vectorize).
# ---------------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* repro: parity-begin tage-batch/c fingerprint=c788c8d8 */
/* Galois LFSR draw of the Sec 6 probabilistic automaton: k steps, OR of
 * the tap bits.  Identical to the reference Python loop. */
static inline uint32_t lfsr_draw(uint32_t state, int64_t k, int64_t *any_set)
{
    int64_t any = 0;
    for (int64_t i = 0; i < k; i++) {
        uint32_t lsb = state & 1u;
        state >>= 1;
        if (lsb) {
            state ^= 0xA3000000u;
            any = 1;
        }
    }
    *any_set = any;
    return state;
}

/* Saturating counter step, standard or probabilistic (draw consumed
 * only on the transition into saturation, never when prob is 1). */
static inline void ctr_step(int64_t *cell, int64_t taken,
                            int64_t cmax, int64_t cmin,
                            int64_t prob_enabled, int64_t prob_k,
                            uint32_t *lfsr_state)
{
    int64_t c = *cell;
    if (taken) {
        if (c >= cmax)
            return;
        if (prob_enabled && c == cmax - 1 && prob_k > 0) {
            int64_t any_set;
            *lfsr_state = lfsr_draw(*lfsr_state, prob_k, &any_set);
            if (any_set)
                return;
        }
        *cell = c + 1;
    } else {
        if (c <= cmin)
            return;
        if (prob_enabled && c == cmin + 1 && prob_k > 0) {
            int64_t any_set;
            *lfsr_state = lfsr_draw(*lfsr_state, prob_k, &any_set);
            if (any_set)
                return;
        }
        *cell = c - 1;
    }
}

int tage_batch(int64_t n, const int64_t *rows,
               const int64_t *ip, const double *fp, int64_t *state,
               int64_t want_predictions, uint8_t *predictions,
               int64_t want_classes, uint8_t *classes)
{
    int64_t log_tagged = ip[0];
    int64_t cmax = ip[1], cmin = ip[2];
    int64_t u_max = ip[3], u_reset = ip[4];
    int64_t use_alt_enabled = ip[5];
    int64_t use_alt_max = ip[6], use_alt_min = ip[7];
    int64_t update_alt = ip[8], randomized = ip[9];
    int64_t prob_enabled = ip[10];
    int64_t est_window = ip[14], max_strength = ip[15];
    int64_t warmup = ip[16];
    int64_t ctrl_window = ip[17];
    int64_t ctrl_min = ip[18], ctrl_max = ip[19];
    int64_t high_mask = ip[20];
    int64_t n_tagged = ip[22];
    double ctrl_target = fp[0];
    double ctrl_relax = fp[1];

    const int64_t *takens = rows;
    const int64_t *bim_idx = rows + n;
    const int64_t *idx_planes = rows + 2 * n;
    const int64_t *tag_planes = rows + (2 + n_tagged) * n;

    int64_t size = (int64_t)1 << log_tagged;
    int64_t *ctr = state + 24;
    int64_t *tag = ctr + n_tagged * size;
    int64_t *u = tag + n_tagged * size;
    int64_t *bimodal = u + n_tagged * size;

    int64_t use_alt = state[0];
    uint32_t lfsr_state = (uint32_t)state[1];
    uint32_t alloc_state = (uint32_t)state[2];
    int64_t prob_k = state[3];
    int64_t since_miss = state[4];
    int64_t ctrl_high = state[5], ctrl_misp = state[6];
    int64_t tick = state[7];
    int64_t *out = state + 8;

    for (int64_t t = 0; t < n; t++) {
        int64_t taken = takens[t] != 0;

        int64_t provider = 0, provider_idx = 0;
        int64_t alt = 0, alt_idx = 0;
        for (int64_t i = n_tagged - 1; i >= 0; i--) {
            int64_t idx = idx_planes[i * n + t];
            if (tag[i * size + idx] == tag_planes[i * n + t]) {
                if (provider) {
                    alt = i + 1;
                    alt_idx = idx;
                    break;
                }
                provider = i + 1;
                provider_idx = idx;
            }
        }

        int64_t bidx = bim_idx[t];
        int64_t bctr = bimodal[bidx];

        int64_t ctrv, provider_pred, altpred, prediction, weak;
        if (provider) {
            ctrv = ctr[(provider - 1) * size + provider_idx];
            provider_pred = ctrv >= 0;
            weak = ctrv >= -1 && ctrv <= 0;
            altpred = alt ? (ctr[(alt - 1) * size + alt_idx] >= 0)
                          : (bctr >= 2);
            if (weak && use_alt_enabled && use_alt >= 0)
                prediction = altpred;
            else
                prediction = provider_pred;
        } else {
            ctrv = bctr;
            prediction = provider_pred = altpred = bctr >= 2;
            weak = 0;
        }

        int64_t mispredicted = prediction != taken;
        if (mispredicted)
            out[0]++;
        if (want_predictions)
            predictions[t] = (uint8_t)prediction;

        if (est_window >= 0) {
            int64_t cls;
            if (provider) {
                int64_t strength = 2 * ctrv + 1;
                if (strength < 0)
                    strength = -strength;
                if (strength == 1)
                    cls = 6;
                else if (strength == max_strength)
                    cls = 3;
                else if (strength == max_strength - 2)
                    cls = 4;
                else
                    cls = 5;
            } else if (bctr == 1 || bctr == 2) {
                cls = 1;
            } else if (since_miss < est_window) {
                cls = 2;
            } else {
                cls = 0;
            }
            if (want_classes)
                classes[t] = (uint8_t)cls;
            if (tick >= warmup) {
                out[1 + cls]++;
                if (mispredicted)
                    out[8 + cls]++;
            }
            if (!provider) {
                if (mispredicted)
                    since_miss = 0;
                else if (since_miss < est_window)
                    since_miss++;
            }
            if (ctrl_window > 0 && ((high_mask >> cls) & 1)) {
                ctrl_high++;
                if (mispredicted)
                    ctrl_misp++;
                if (ctrl_high >= ctrl_window) {
                    double rate_mkp = 1000.0 * (double)ctrl_misp
                                      / (double)ctrl_high;
                    if (rate_mkp > ctrl_target && prob_k < ctrl_max)
                        prob_k++;
                    else if (rate_mkp < ctrl_target * ctrl_relax
                             && prob_k > ctrl_min)
                        prob_k--;
                    ctrl_high = 0;
                    ctrl_misp = 0;
                }
            }
        }

        int64_t allocate = mispredicted && provider < n_tagged;
        if (provider && weak) {
            if (provider_pred == taken)
                allocate = 0;
            if (provider_pred != altpred) {
                if (altpred == taken) {
                    if (use_alt < use_alt_max)
                        use_alt++;
                } else if (use_alt > use_alt_min) {
                    use_alt--;
                }
            }
        }

        if (allocate) {
            int64_t start = provider + 1;
            if (randomized) {
                uint32_t x = alloc_state;
                while (start < n_tagged) {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    if (!(x & 1u))
                        break;
                    start++;
                }
                alloc_state = x;
            }
            int64_t allocated = 0;
            for (int64_t j = start - 1; j < n_tagged; j++) {
                int64_t idx = idx_planes[j * n + t];
                if (u[j * size + idx] == 0) {
                    ctr[j * size + idx] = taken ? 0 : -1;
                    tag[j * size + idx] = tag_planes[j * n + t];
                    allocated = 1;
                    break;
                }
            }
            if (!allocated) {
                for (int64_t j = start - 1; j < n_tagged; j++) {
                    int64_t idx = idx_planes[j * n + t];
                    if (u[j * size + idx] > 0)
                        u[j * size + idx]--;
                }
            }
        }

        if (provider) {
            int64_t p = provider - 1;
            ctr_step(&ctr[p * size + provider_idx], taken, cmax, cmin,
                     prob_enabled, prob_k, &lfsr_state);
            if (update_alt && u[p * size + provider_idx] == 0) {
                if (alt) {
                    ctr_step(&ctr[(alt - 1) * size + alt_idx], taken,
                             cmax, cmin, prob_enabled, prob_k,
                             &lfsr_state);
                } else if (taken) {
                    if (bimodal[bidx] < 3)
                        bimodal[bidx]++;
                } else if (bimodal[bidx] > 0) {
                    bimodal[bidx]--;
                }
            }
            if (provider_pred != altpred) {
                int64_t uv = u[p * size + provider_idx];
                if (provider_pred == taken) {
                    if (uv < u_max)
                        u[p * size + provider_idx] = uv + 1;
                } else if (uv > 0) {
                    u[p * size + provider_idx] = uv - 1;
                }
            }
        } else if (taken) {
            if (bctr < 3)
                bimodal[bidx] = bctr + 1;
        } else if (bctr > 0) {
            bimodal[bidx] = bctr - 1;
        }

        tick++;
        if (tick % u_reset == 0) {
            for (int64_t s = 0; s < n_tagged * size; s++)
                u[s] >>= 1;
        }
    }

    out[15] = prob_enabled ? prob_k : -1;
    state[0] = use_alt;
    state[1] = (int64_t)lfsr_state;
    state[2] = (int64_t)alloc_state;
    state[3] = prob_k;
    state[4] = since_miss;
    state[5] = ctrl_high;
    state[6] = ctrl_misp;
    state[7] = tick;
    return 0;
}
/* repro: parity-end tage-batch/c */

/* repro: parity-begin tage-planes/c fingerprint=afd956d6 */
/* One tagged component's hash constants, computed once per call: the
   PC shift, the index/tag/path-window masks, the history length, and
   per fold (index, tag, tag-1) its width, mask and eviction position
   (FoldedHistory.update's `length % width`). */
typedef struct {
    int64_t shift, log_entries, length;
    uint64_t index_mask, tag_mask, window_mask;
    int64_t width[3], fold_mask[3], out_pos[3];
} plane_hash;

int tage_planes(int64_t n, const int64_t *restrict gp,
                int64_t *restrict history, const uint64_t *restrict pcs,
                const uint8_t *restrict takens, int64_t *restrict out)
{
    int64_t m = gp[0];
    uint64_t bmask = ((uint64_t)1 << gp[1]) - 1;
    uint64_t path_mask = ((uint64_t)1 << gp[2]) - 1;
    int64_t capacity = gp[3];
    uint64_t path = (uint64_t)history[0];
    int64_t head = history[1];
    int64_t *folds = history + 2;
    int64_t *ring = history + 2 + 3 * m;
    plane_hash *hashes = malloc((size_t)m * sizeof *hashes);
    if (hashes == NULL)
        return -1;
    for (int64_t i = 0; i < m; i++) {
        const int64_t *g = gp + 4 + 5 * i;
        plane_hash *h = hashes + i;
        h->shift = g[0] + 1;
        h->log_entries = g[1];
        h->length = g[3];
        h->index_mask = ((uint64_t)1 << g[1]) - 1;
        h->tag_mask = ((uint64_t)1 << g[2]) - 1;
        h->window_mask = ((uint64_t)1 << g[4]) - 1;
        h->width[0] = g[1];
        h->width[1] = g[2];
        h->width[2] = g[2] - 1 > 1 ? g[2] - 1 : 1;
        for (int f = 0; f < 3; f++) {
            h->fold_mask[f] = ((int64_t)1 << h->width[f]) - 1;
            h->out_pos[f] = h->length % h->width[f];
        }
    }

    for (int64_t t = 0; t < n; t++) {
        uint64_t pc = pcs[t];
        int64_t taken = takens[t] != 0;
        uint64_t pc_part = pc >> 2;
        out[t] = taken;
        out[n + t] = (int64_t)(pc_part & bmask);
        for (int64_t i = 0; i < m; i++) {
            const plane_hash *h = hashes + i;
            uint64_t window = path & h->window_mask;
            uint64_t path_part = 0;
            while (window) {
                path_part ^= window & h->index_mask;
                window >>= h->log_entries;
            }
            uint64_t index = pc_part ^ (pc_part >> h->shift)
                             ^ (uint64_t)folds[i] ^ path_part;
            uint64_t tag = pc_part ^ (uint64_t)folds[m + i]
                           ^ ((uint64_t)folds[2 * m + i] << 1);
            out[(2 + i) * n + t] = (int64_t)(index & h->index_mask);
            out[(2 + m + i) * n + t] = (int64_t)(tag & h->tag_mask);
            /* The FoldedHistory step of the component's registers: the
               outcome enters, the one `length` branches old (ring slot
               head - length, as length <= capacity) leaves. */
            int64_t slot = head - h->length;
            if (slot < 0)
                slot += capacity;
            int64_t outgoing = ring[slot];
            int64_t *fold = folds + i;
            for (int f = 0; f < 3; f++, fold += m) {
                int64_t comp = (*fold << 1) | taken;
                comp ^= outgoing << h->out_pos[f];
                comp ^= comp >> h->width[f];
                *fold = comp & h->fold_mask[f];
            }
        }
        ring[head] = taken;
        head++;
        if (head == capacity)
            head = 0;
        path = ((path << 1) | (pc & 1)) & path_mask;
    }
    free(hashes);
    history[0] = (int64_t)path;
    history[1] = head;
    return 0;
}
/* repro: parity-end tage-planes/c */

/* repro: parity-begin ogehl-run/c fingerprint=2528c251 */
int ogehl_run(int64_t n, int64_t n_tables, int64_t log_entries,
              const int64_t *takens, const int64_t *planes,
              int64_t ctr_max, int64_t ctr_min,
              uint8_t *predictions, uint8_t *high)
{
    int64_t size = (int64_t)1 << log_entries;
    int64_t *tables = (int64_t *)calloc((size_t)(n_tables * size),
                                        sizeof(int64_t));
    if (!tables)
        return 1;
    int64_t threshold = n_tables;
    int64_t threshold_counter = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t total = 0;
        for (int64_t m = 0; m < n_tables; m++)
            total += tables[m * size + planes[m * n + t]];
        total = 2 * total + n_tables;
        int64_t prediction = total >= 0;
        predictions[t] = (uint8_t)prediction;
        int64_t magnitude = total >= 0 ? total : -total;
        high[t] = magnitude >= threshold ? 1 : 0;
        int64_t taken = takens[t] == 1;
        int64_t mispredicted = prediction != taken;
        if (mispredicted || magnitude < threshold) {
            for (int64_t m = 0; m < n_tables; m++) {
                int64_t index = planes[m * n + t];
                int64_t counter = tables[m * size + index];
                if (taken) {
                    if (counter < ctr_max)
                        tables[m * size + index] = counter + 1;
                } else if (counter > ctr_min) {
                    tables[m * size + index] = counter - 1;
                }
            }
        }
        if (mispredicted) {
            threshold_counter++;
            if (threshold_counter >= 4) {
                threshold_counter = 0;
                threshold++;
            }
        } else if (magnitude < threshold) {
            threshold_counter--;
            if (threshold_counter <= -4) {
                threshold_counter = 0;
                if (threshold > 1)
                    threshold--;
            }
        }
    }
    free(tables);
    return 0;
}
/* repro: parity-end ogehl-run/c */

/* repro: parity-begin counter-scan/c fingerprint=dfb406c1 */
int counter_scan(int64_t n, int64_t n_entries, int64_t *state,
                 const int64_t *indices, const int64_t *b,
                 const int64_t *lo, const int64_t *hi, int64_t *out)
{
    for (int64_t t = 0; t < n; t++) {
        if (indices[t] < 0 || indices[t] >= n_entries)
            return 2;
    }
    for (int64_t t = 0; t < n; t++) {
        int64_t index = indices[t];
        int64_t s = state[index];
        out[t] = s;
        s += b[t];
        if (s < lo[t])
            s = lo[t];
        if (s > hi[t])
            s = hi[t];
        state[index] = s;
    }
    return 0;
}
/* repro: parity-end counter-scan/c */

/* repro: parity-begin perceptron-run/c fingerprint=0622b443 */
int perceptron_run(int64_t n, int64_t h, int64_t n_rows,
                   const int64_t *indices, const int64_t *windows,
                   const uint8_t *takens, int64_t threshold,
                   int64_t weight_min, int64_t weight_max,
                   uint8_t *predictions, uint8_t *high)
{
    int64_t width = h + 1;
    for (int64_t t = 0; t < n; t++) {
        if (indices[t] < 0 || indices[t] >= n_rows)
            return 2;
    }
    int64_t *weights = (int64_t *)calloc((size_t)(n_rows * width),
                                         sizeof(int64_t));
    if (!weights)
        return 1;
    for (int64_t t = 0; t < n; t++) {
        int64_t *row = weights + indices[t] * width;
        int64_t window = windows[t];
        int64_t total = row[0];
        for (int64_t age = 0; age < h; age++) {
            if ((window >> age) & 1)
                total += row[age + 1];
            else
                total -= row[age + 1];
        }
        int64_t prediction = total >= 0;
        int64_t magnitude = total >= 0 ? total : -total;
        predictions[t] = (uint8_t)prediction;
        high[t] = magnitude > threshold ? 1 : 0;
        int64_t taken = takens[t] != 0;
        if (prediction != taken || magnitude <= threshold) {
            int64_t direction = taken ? 1 : -1;
            for (int64_t i = 0; i < width; i++) {
                int64_t sign = (i == 0 || ((window >> (i - 1)) & 1)) ? 1 : -1;
                int64_t weight = row[i] + direction * sign;
                if (weight < weight_min)
                    weight = weight_min;
                if (weight > weight_max)
                    weight = weight_max;
                row[i] = weight;
            }
        }
    }
    free(weights);
    return 0;
}
/* repro: parity-end perceptron-run/c */

/* repro: parity-begin trace-synth/c fingerprint=2c72842c */
/* One-shot synthesis: SyntheticWorkload(spec).generate(n) on a fresh
 * workload.  SplitMix64 is counter-based (draw k of SplitMix64(s) is
 * sm_mix(s + k * gamma)), so every kernel is built eagerly from its
 * construction counter.  The category and routine CDFs come from the
 * pure helpers; this side only compares draws against them. */
#define SM_GAMMA 0x9E3779B97F4A7C15ull

static inline uint64_t sm_mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/* SplitMix64.next_float: the draw's top 53 bits over 2**53. */
static inline double sm_unit(uint64_t draw)
{
    return (double)(draw >> 11) / 9007199254740992.0;
}

/* Kernel categories, in KernelMix.as_items order. */
enum { SK_BIASED_STRONG, SK_BIASED_NOISY, SK_LOOP, SK_PATTERN, SK_PARITY,
       SK_HISTORY_FN, SK_LOCAL_PATTERN, SK_NESTED_LOOP, SK_CATEGORIES };

typedef struct {
    uint64_t pc;
    int64_t category;
    double p;            /* biased p_taken, or a correlated kernel's noise */
    uint64_t counter;    /* draw counter of a biased or noisy kernel */
    uint64_t fn_seed;    /* HistoryFunctionKernel truth-table seed */
    uint64_t window;     /* history window of a correlated kernel */
    uint64_t pattern;    /* bit i: pattern position i */
    int64_t length;      /* pattern length, or nested-loop phase count */
    int64_t trips[4];    /* loop trip count(s) */
    int64_t position;    /* pattern position, or loop iteration */
    int64_t outer;       /* nested-loop phase */
} synth_branch;

typedef struct {
    int64_t n_routines;
    uint64_t walk_seed;
    int64_t repeat_lo, repeat_span, inst_lo, inst_span;
    double locality;
    synth_branch *branches;
    int64_t *routine_start;  /* n_routines + 1 offsets into routine_items */
    int64_t *routine_items;
    int64_t *succ_start;     /* n_routines + 1 offsets into succ_items */
    int64_t *succ_items;
} synth_workload;

void synth_free(synth_workload *w)
{
    if (!w)
        return;
    free(w->branches);
    free(w->routine_start);
    free(w->routine_items);
    free(w->succ_start);
    free(w->succ_items);
    free(w);
}

/* _make_kernel from the construction counter c. */
static void synth_kernel(synth_branch *b, uint64_t c, int64_t index,
                         const int64_t *ip, const double *fp)
{
    uint64_t d1 = sm_mix(c + SM_GAMMA), d2 = sm_mix(c + 2 * SM_GAMMA);
    uint64_t seed = d1 ^ ((uint64_t)index * 0x9E3779B9ull);
    int64_t lo, span;
    b->counter = seed;
    b->position = 0;
    b->outer = 0;
    switch (b->category) {
    case SK_BIASED_STRONG: {
        double magnitude = fp[2] + (fp[3] - fp[2]) * sm_unit(d2);
        int taken_side = sm_unit(sm_mix(c + 3 * SM_GAMMA)) < 0.5;
        b->p = taken_side ? magnitude : 1.0 - magnitude;
        break;
    }
    case SK_BIASED_NOISY:
        b->p = fp[4] + (fp[5] - fp[4]) * sm_unit(d2);
        if (sm_unit(sm_mix(c + 3 * SM_GAMMA)) < 0.5)
            b->p = 1.0 - b->p;
        break;
    case SK_LOOP:
        b->trips[0] = ip[6] + (int64_t)(d2 % (uint64_t)(ip[7] - ip[6] + 1));
        break;
    case SK_PATTERN:
    case SK_LOCAL_PATTERN:
        lo = ip[8];
        span = ip[9] - lo + 1;
        b->length = lo + (int64_t)(d2 % (uint64_t)span);
        if (b->category == SK_LOCAL_PATTERN && b->length < 2)
            b->length = 2;
        b->pattern = 0;
        for (int64_t i = 0; i < b->length; i++)
            b->pattern |= (sm_mix(seed + (uint64_t)(i + 1) * SM_GAMMA) & 1)
                          << i;
        if (b->category == SK_PATTERN && !b->pattern)
            b->pattern = 1;
        break;
    case SK_PARITY:
    case SK_HISTORY_FN: {
        int64_t at = b->category == SK_PARITY ? 10 : 12;
        int64_t depth = ip[at] + (int64_t)(d2 % (uint64_t)(ip[at + 1] - ip[at] + 1));
        b->window = depth >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << depth) - 1;
        b->p = fp[1];
        b->fn_seed = sm_mix((seed ^ 0x5BD1E995ull) + SM_GAMMA);
        break;
    }
    case SK_NESTED_LOOP:
        b->length = 2 + (int64_t)(d2 % 3);
        span = ip[7] - ip[6] + 1;
        for (int64_t i = 0; i < b->length; i++)
            b->trips[i] = ip[6] + (int64_t)(
                sm_mix(c + (uint64_t)(3 + i) * SM_GAMMA) % (uint64_t)span);
        break;
    }
}

/* Construction: static branches, routines and the transition graph.
 * ip: n_static, n_routines, then (lo, hi) of routine_len,
 * routine_repeat, loop_trips, pattern_len, parity_depth,
 * history_fn_depth and insts_per_branch.  fp: transition_locality,
 * correlated_noise, strong_bias (lo, hi), noisy_bias (lo, hi), then the
 * SK_CATEGORIES-entry category CDF.  Returns NULL when out of memory. */
synth_workload *synth_build(uint64_t seed, const int64_t *ip,
                            const double *fp, int64_t *n_routines)
{
    int64_t n_static = ip[0];
    const double *cdf = fp + 6;
    synth_workload *w = (synth_workload *)calloc(1, sizeof(synth_workload));
    if (!w)
        return NULL;
    w->walk_seed = seed ^ 0xC0FFEEull;
    w->repeat_lo = ip[4];
    w->repeat_span = ip[5] - ip[4] + 1;
    w->inst_lo = ip[14];
    w->inst_span = ip[15] - ip[14] + 1;
    w->locality = fp[0];
    w->branches = (synth_branch *)calloc((size_t)n_static, sizeof(synth_branch));
    int64_t *straight = (int64_t *)malloc((size_t)n_static * sizeof(int64_t));
    int64_t *loops = (int64_t *)malloc((size_t)n_static * sizeof(int64_t));
    if (!w->branches || !straight || !loops)
        goto fail;

    /* Fork k of SplitMix64(seed) is seeded with the root's draw k. */
    uint64_t fork0 = sm_mix(seed + SM_GAMMA);
    uint64_t fork1 = sm_mix(seed + 2 * SM_GAMMA);
    uint64_t fork2 = sm_mix(seed + 3 * SM_GAMMA);

    /* draws[j] of the pure side is draw j + 1 of SplitMix64(fork0). */
#define SM_DRAW(j) sm_mix(fork0 + (uint64_t)((j) + 1) * SM_GAMMA)
    uint64_t pc = 0x00400000ull + SM_DRAW(0) % 0x400 * 4;
    int64_t j = 1, n_straight = 0, n_loops = 0;
    for (int64_t index = 0; index < n_static; index++) {
        synth_branch *b = w->branches + index;
        pc += 4 + 4 * (SM_DRAW(j) % 12);
        if (sm_unit(SM_DRAW(j + 1)) < 0.05) {
            j += 1;
            pc += 0x400 + SM_DRAW(j + 1) % 0x1000 * 4;
        }
        double x = sm_unit(SM_DRAW(j + 2));
        int64_t slot = 0;
        while (slot < SK_CATEGORIES && cdf[slot] < x)
            slot++;
        j += 3;
        b->pc = pc;
        b->category = slot < SK_CATEGORIES - 1 ? slot : SK_CATEGORIES - 1;
        synth_kernel(b, fork0 + (uint64_t)j * SM_GAMMA, index, ip, fp);
        j += 2;
        if (b->category == SK_BIASED_STRONG || b->category == SK_BIASED_NOISY)
            j += 1;
        else if (b->category == SK_NESTED_LOOP)
            j += b->length;
        if (b->category == SK_LOOP || b->category == SK_NESTED_LOOP)
            loops[n_loops++] = index;
        else
            straight[n_straight++] = index;
    }
#undef SM_DRAW

    /* Routines, from SplitMix64(fork1). */
    int64_t lo = ip[2], span = ip[3] - ip[2] + 1;
    int64_t capacity = n_static + n_loops + ip[1] * ip[3];
    int64_t routines_max = n_static + ip[1] + 1;
    w->routine_items = (int64_t *)malloc((size_t)capacity * sizeof(int64_t));
    w->routine_start = (int64_t *)malloc((size_t)routines_max * sizeof(int64_t));
    if (!w->routine_items || !w->routine_start)
        goto fail;
    uint64_t r = fork1;
    int64_t count = 0, used = 0;
    w->routine_start[0] = 0;
    for (int64_t cursor = 0; cursor < n_straight;) {
        r += SM_GAMMA;
        int64_t length = lo + (int64_t)(sm_mix(r) % (uint64_t)span);
        for (int64_t i = cursor; i < cursor + length && i < n_straight; i++)
            w->routine_items[used++] = straight[i];
        w->routine_start[++count] = used;
        cursor += length;
    }
    for (int64_t i = 0; i < n_loops; i++) {
        if (n_straight) {
            r += SM_GAMMA;
            if (sm_unit(sm_mix(r)) < 0.5) {
                r += SM_GAMMA;
                w->routine_items[used++] =
                    straight[sm_mix(r) % (uint64_t)n_straight];
            }
        }
        w->routine_items[used++] = loops[i];
        w->routine_start[++count] = used;
    }
    while (count < ip[1]) {
        r += SM_GAMMA;
        int64_t length = lo + (int64_t)(sm_mix(r) % (uint64_t)span);
        if (!n_straight)
            break;
        r += SM_GAMMA;
        int64_t start = (int64_t)(sm_mix(r) % (uint64_t)n_straight);
        for (int64_t i = 0; i < length; i++)
            w->routine_items[used++] = straight[(start + i) % n_straight];
        w->routine_start[++count] = used;
    }
    w->n_routines = count;

    /* Successor sets, from SplitMix64(fork2). */
    w->succ_start = (int64_t *)malloc((size_t)(count + 1) * sizeof(int64_t));
    w->succ_items = (int64_t *)malloc((size_t)(4 * count + 1) * sizeof(int64_t));
    if (!w->succ_start || !w->succ_items)
        goto fail;
    uint64_t s = fork2;
    used = 0;
    w->succ_start[0] = 0;
    for (int64_t i = 0; i < count; i++) {
        s += SM_GAMMA;
        int64_t fanout = 2 + (int64_t)(sm_mix(s) % 3);
        for (int64_t k = 0; k < fanout; k++) {
            s += SM_GAMMA;
            w->succ_items[used++] = (int64_t)(sm_mix(s) % (uint64_t)count);
        }
        w->succ_start[i + 1] = used;
    }
    free(straight);
    free(loops);
    *n_routines = count;
    return w;
fail:
    free(straight);
    free(loops);
    synth_free(w);
    return NULL;
}

/* The walk: n branches into pcs/takens/insts, routine picks against
 * the n_routines-entry routine CDF. */
int synth_walk(synth_workload *w, const double *routine_cdf, int64_t n,
               int64_t *pcs, uint8_t *takens, int64_t *insts)
{
    uint64_t walk = w->walk_seed;
    uint64_t ghist = 0;
    int64_t emitted = 0, current = -1;
    int64_t last_routine = w->n_routines - 1;
    while (emitted < n) {
        if (current >= 0
            && sm_unit(sm_mix(walk += SM_GAMMA)) < w->locality) {
            int64_t first = w->succ_start[current];
            int64_t fanout = w->succ_start[current + 1] - first;
            current = w->succ_items[
                first + (int64_t)(sm_mix(walk += SM_GAMMA) % (uint64_t)fanout)];
        } else {
            double x = sm_unit(sm_mix(walk += SM_GAMMA));
            int64_t slot = 0;
            while (slot <= last_routine && routine_cdf[slot] < x)
                slot++;
            current = slot < last_routine ? slot : last_routine;
        }
        int64_t repeats = w->repeat_lo + (int64_t)(
            sm_mix(walk += SM_GAMMA) % (uint64_t)w->repeat_span);
        int64_t visit_start = emitted;
        int64_t body_start = w->routine_start[current];
        int64_t body_end = w->routine_start[current + 1];
        for (int64_t rep = 0; rep < repeats && emitted < n; rep++) {
            for (int64_t at = body_start; at < body_end && emitted < n; at++) {
                synth_branch *b = w->branches + w->routine_items[at];
                int64_t taken;
                if (b->category == SK_LOOP || b->category == SK_NESTED_LOOP) {
                    /* The whole iteration burst: LoopKernel.burst. */
                    int64_t limit = n - emitted;
                    int64_t trip = b->trips[b->category == SK_LOOP ? 0 : b->outer];
                    int64_t exited = 0;
                    taken = trip - 1 - b->position;
                    if (taken > limit)
                        taken = limit;
                    if (taken < limit) {
                        b->position = 0;
                        if (b->category == SK_NESTED_LOOP)
                            b->outer = (b->outer + 1) % b->length;
                        exited = 1;
                    } else {
                        b->position += taken;
                    }
                    int64_t burst = taken + exited;
                    uint64_t history = burst >= 32 ? 0 : ghist << burst;
                    uint64_t ones = taken >= 32 ? 0xFFFFFFFFull
                                                : ((uint64_t)1 << taken) - 1;
                    ghist = (history | ones << exited) & 0xFFFFFFFFull;
                    for (int64_t i = 0; i < burst; i++) {
                        pcs[emitted + i] = (int64_t)b->pc;
                        takens[emitted + i] = i < taken;
                    }
                    emitted += burst;
                    continue;
                }
                switch (b->category) {
                case SK_BIASED_STRONG:
                case SK_BIASED_NOISY:
                    taken = sm_unit(sm_mix(b->counter += SM_GAMMA)) < b->p;
                    break;
                case SK_PATTERN:
                case SK_LOCAL_PATTERN:
                    taken = (int64_t)((b->pattern >> b->position) & 1);
                    b->position = (b->position + 1) % b->length;
                    break;
                default:  /* SK_PARITY, SK_HISTORY_FN */
                    if (b->category == SK_PARITY)
                        taken = __builtin_popcountll(ghist & b->window) & 1;
                    else
                        taken = (int64_t)(sm_mix((b->fn_seed ^ (ghist & b->window))
                                                 + SM_GAMMA) & 1);
                    if (b->p != 0.0
                        && sm_unit(sm_mix(b->counter += SM_GAMMA)) < b->p)
                        taken = !taken;
                    break;
                }
                ghist = ((ghist << 1) | (uint64_t)taken) & 0xFFFFFFFFull;
                pcs[emitted] = (int64_t)b->pc;
                takens[emitted] = (uint8_t)taken;
                emitted++;
            }
        }
        /* One instruction-count draw per branch, in emission order. */
        for (int64_t i = visit_start; i < emitted; i++)
            insts[i] = w->inst_lo + (int64_t)(
                sm_mix(walk += SM_GAMMA) % (uint64_t)w->inst_span);
    }
    return 0;
}
/* repro: parity-end trace-synth/c */
"""


# ---------------------------------------------------------------------------
# Provider resolution (lazy, cached).
# ---------------------------------------------------------------------------

#: kernel kind -> C callable, once the shared library has loaded.
_KERNELS: dict[str, object] = {}
#: forced-env value -> resolved provider name or None (memoized).
_RESOLVED: dict[str, str | None] = {}
#: provider name -> human reason it is unavailable (best effort).
_UNAVAILABLE: dict[str, str] = {}
_RESOLVE_LOCK = threading.Lock()


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


#: Compiler flags of the C build.  ``-ffp-contract=off`` forbids fusing
#: a multiply and an add into one FMA (GCC contracts by default on
#: targets that have it, e.g. aarch64), so the trace-synthesis floats
#: round exactly as CPython's do.
_C_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _find_compiler() -> str | None:
    cc = os.environ.get("CC", "").strip()
    if cc and shutil.which(cc):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _build_shared_library() -> Path:
    """Compile the embedded C source into a cached shared library.

    The cache key digests the C source and the compiler flags
    (:data:`_C_FLAGS`), so editing the C string or a flag transparently
    rebuilds.  The compiler's name stays out of the key: a cached
    library must load on a box with no compiler.  The build itself is
    atomic (temp file + ``os.replace``) and therefore safe under
    concurrent workers.
    """
    digest = hashlib.sha256(
        "\0".join([_C_SOURCE, *_C_FLAGS]).encode()
    ).hexdigest()[:16]
    directory = _cache_dir()
    so_path = directory / f"repro_kernels_{digest}.so"
    if so_path.exists():
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as build:
        source = Path(build) / "kernels.c"
        source.write_text(_C_SOURCE)
        built = Path(build) / "kernels.so"
        result = subprocess.run(
            [compiler, *_C_FLAGS, "-o", str(built), str(source)],
            capture_output=True, text=True, timeout=120,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed ({result.returncode}): "
                f"{result.stderr.strip()[:500]}"
            )
        os.replace(built, so_path)
    return so_path


def _require(buffer, n_bytes: int, what: str) -> None:
    """Refuse a kernel buffer that is not C-contiguous or is shorter than
    the ``n_bytes`` the kernel will touch."""
    view = memoryview(buffer)
    if not view.c_contiguous or view.nbytes < n_bytes:
        raise ValueError(
            f"{what} buffer of {view.nbytes} bytes does not hold the "
            f"{n_bytes} contiguous bytes the kernel needs"
        )


def _address(buffer):
    """The data address of a kernel argument, for a ``c_void_p`` slot:
    an :class:`array.array` block, a ``bytes``/``bytearray`` column, a
    NumPy array, or None for an unused output."""
    if buffer is None or isinstance(buffer, bytes):
        return buffer
    if isinstance(buffer, array):
        return buffer.buffer_info()[0]
    if isinstance(buffer, bytearray):
        return ctypes.addressof(ctypes.c_char.from_buffer(buffer)) if buffer else None
    return buffer.ctypes.data


def _load_cext() -> bool:
    if _KERNELS:
        return True
    try:
        library = ctypes.CDLL(str(_build_shared_library()))
    except Exception as error:  # noqa: BLE001 — availability probe
        _UNAVAILABLE["cext"] = f"C kernel build failed ({error})"
        return False

    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    library.tage_batch.restype = ctypes.c_int
    library.tage_batch.argtypes = [i64, ptr, ptr, ptr, ptr, i64, ptr, i64, ptr]
    library.tage_planes.restype = ctypes.c_int
    library.tage_planes.argtypes = [i64, ptr, ptr, ptr, ptr, ptr]
    library.ogehl_run.restype = ctypes.c_int
    library.ogehl_run.argtypes = [
        i64, i64, i64, p_i64, p_i64, i64, i64, p_u8, p_u8,
    ]
    library.counter_scan.restype = ctypes.c_int
    library.counter_scan.argtypes = [
        i64, i64, p_i64, p_i64, p_i64, p_i64, p_i64, p_i64,
    ]
    library.perceptron_run.restype = ctypes.c_int
    library.perceptron_run.argtypes = [
        i64, i64, i64, p_i64, p_i64, p_u8, i64, i64, i64, p_u8, p_u8,
    ]

    library.synth_build.restype = ptr
    library.synth_build.argtypes = [ctypes.c_uint64, ptr, ptr, p_i64]
    library.synth_walk.restype = ctypes.c_int
    library.synth_walk.argtypes = [ptr, ptr, i64, ptr, ptr, ptr]
    library.synth_free.restype = None
    library.synth_free.argtypes = [ptr]

    def as_i64(array):
        return array.ctypes.data_as(p_i64)

    def cext_tage(rows, n, iparams, fparams, state, predictions, classes):
        _require(iparams, 8 * N_IPARAMS, "iparams")
        _require(fparams, 8 * N_FPARAMS, "fparams")
        _require(rows, 8 * (2 + 2 * iparams[IP_N_TAGGED]) * n, "plane rows")
        _require(state, 8 * state_words(iparams), "state")
        for column in (predictions, classes):
            if column is not None:
                _require(column, n, "output")
        library.tage_batch(
            n, _address(rows), _address(iparams), _address(fparams),
            _address(state),
            predictions is not None, _address(predictions),
            classes is not None, _address(classes),
        )
        return 0

    def cext_tage_planes(n, gparams, history, pcs, takens, out):
        n_tagged = gparams[GP_N_TAGGED]
        _require(gparams, 8 * (GP_COMPONENTS + GP_STRIDE * n_tagged), "gparams")
        _require(history, 8 * history_words(gparams), "history")
        _require(pcs, 8 * n, "pcs")
        _require(takens, n, "takens")
        _require(out, 8 * (2 + 2 * n_tagged) * n, "plane rows")
        status = library.tage_planes(
            n, _address(gparams), _address(history), _address(pcs),
            _address(takens), _address(out),
        )
        if status != 0:
            raise MemoryError("compiled TAGE plane builder ran out of memory")
        return 0

    def cext_ogehl(takens, planes, ctr_max, ctr_min, log_entries,
                   predictions, high):
        status = library.ogehl_run(
            takens.shape[0], planes.shape[0], int(log_entries),
            as_i64(takens), as_i64(planes),
            int(ctr_max), int(ctr_min),
            predictions.ctypes.data_as(p_u8), high.ctypes.data_as(p_u8),
        )
        if status != 0:
            raise MemoryError("compiled O-GEHL kernel ran out of memory")
        return 0

    def cext_counter_scan(state, indices, b, lo, hi, out):
        status = library.counter_scan(
            indices.shape[0], state.shape[0], as_i64(state),
            as_i64(indices), as_i64(b), as_i64(lo), as_i64(hi), as_i64(out),
        )
        if status != 0:
            raise IndexError("counter table index out of range")
        return 0

    def cext_perceptron(indices, windows, takens, history_length, n_rows,
                        threshold, weight_min, weight_max, predictions,
                        high):
        status = library.perceptron_run(
            indices.shape[0], int(history_length), int(n_rows),
            as_i64(indices), as_i64(windows), takens.ctypes.data_as(p_u8),
            int(threshold), int(weight_min), int(weight_max),
            predictions.ctypes.data_as(p_u8), high.ctypes.data_as(p_u8),
        )
        if status == 2:
            raise IndexError("perceptron weight-row index out of range")
        if status != 0:
            raise MemoryError("compiled perceptron kernel ran out of memory")
        return 0

    def cext_trace_synth(seed, iparams, fparams, routine_cdf, n):
        _require(iparams, 8 * N_SYNTH_IPARAMS, "iparams")
        _require(fparams, 8 * N_SYNTH_FPARAMS, "fparams")
        n_routines = ctypes.c_int64()
        workload = library.synth_build(seed, _address(iparams),
                                       _address(fparams),
                                       ctypes.byref(n_routines))
        if not workload:
            raise MemoryError("compiled trace synthesis ran out of memory")
        try:
            cdf = array("d", routine_cdf(n_routines.value))
            _require(cdf, 8 * n_routines.value, "routine cdf")
            pcs, insts = array("q", bytes(8 * n)), array("q", bytes(8 * n))
            takens = bytearray(n)
            library.synth_walk(workload, _address(cdf), n, _address(pcs),
                               _address(takens), _address(insts))
        finally:
            library.synth_free(workload)
        return pcs, takens, insts

    _KERNELS.update({"tage": cext_tage, "tage_planes": cext_tage_planes,
                     "trace_synth": cext_trace_synth,
                     "ogehl": cext_ogehl,
                     "counter_scan": cext_counter_scan,
                     "perceptron": cext_perceptron})
    return True


def active_provider() -> str | None:
    """``"cext"`` when the C kernels serve this process, else None.

    ``REPRO_COMPILED_PROVIDER=none`` pins the pure kernels; unset or
    ``cext`` loads the C build.  The result is memoized per env value,
    so the build probe runs at most once per process.
    """
    forced = _forced_provider()
    with _RESOLVE_LOCK:
        if forced not in _RESOLVED:
            loaded = forced != "none" and _load_cext()
            _RESOLVED[forced] = "cext" if loaded else None
        return _RESOLVED[forced]


def provider_unavailable_reason() -> str | None:
    """Why no compiled provider resolved (None when one is active)."""
    if active_provider() is not None:
        return None
    if _forced_provider() == "none":
        return f"{PROVIDER_ENV}=none pins the pure-Python kernels"
    return _UNAVAILABLE.get("cext", "the C kernel build is unavailable")


def _forced_provider() -> str:
    """The ``REPRO_COMPILED_PROVIDER`` value: ``""``, ``cext`` or ``none``."""
    forced = os.environ.get(PROVIDER_ENV, "").strip().lower()
    if forced not in ("", "none") + COMPILED_PROVIDERS:
        raise ValueError(
            f"unknown {PROVIDER_ENV}={forced!r}; expected "
            f"{', '.join(COMPILED_PROVIDERS + ('none',))} or unset"
        )
    return forced


def _reset_provider_cache() -> None:
    """Test hook: forget resolution results and the loaded C build (the
    next resolution reloads the cached shared library)."""
    with _RESOLVE_LOCK:
        _RESOLVED.clear()
        _KERNELS.clear()
        _UNAVAILABLE.clear()


# ---------------------------------------------------------------------------
# Dispatch + the once-per-process fallback warning.
# ---------------------------------------------------------------------------

_WARNED_MISSING = False


def warn_missing_compiled() -> None:
    """Warn (once per process) that the C kernels were required but
    could not be built, naming the remedy."""
    global _WARNED_MISSING
    if _WARNED_MISSING:
        return
    _WARNED_MISSING = True
    warnings.warn(
        f"{PROVIDER_ENV}=cext requires the C kernels but they are "
        f"unavailable ({provider_unavailable_reason()}); falling back to "
        "the pure-Python kernels. Put a C compiler on PATH (or name one "
        "in $CC) to enable the C build.",
        FastBackendFallbackWarning,
        stacklevel=3,
    )


def _reset_missing_warning() -> None:
    """Test hook: re-arm the once-per-process fallback warning."""
    global _WARNED_MISSING
    _WARNED_MISSING = False


def _resolve(kind: str):
    """The C kernel for ``kind``, or None to run the pure kernel.

    A required (``cext``) build that cannot load warns once per process
    and falls back to pure.
    """
    if active_provider() is None:
        if _forced_provider() == "cext":
            warn_missing_compiled()
        return None
    return _KERNELS[kind]


def resolve_tage_kernel():
    """The one-cell C TAGE kernel, or None to run the pure kernel.

    Signature: ``(rows, n, iparams, fparams, state, predictions,
    classes)``.  ``rows`` is the int64 plane block of ``n`` branches —
    outcomes, bimodal indices, then the ``n_tagged`` index and tag rows,
    each ``n`` long (``TagePlanes.data[1:]``, or a ``tage_planes``
    output); ``iparams``/``fparams`` are the int64 ``IP_*`` and float64
    ``FP_*`` rows; ``state`` is the int64 ``ST_*`` block, read and left
    advanced past the batch.  ``predictions``/``classes`` are writable
    ``n``-byte outputs, or None when not wanted.  Arrays may be NumPy
    arrays or :class:`array.array` blocks, all C-contiguous.
    """
    return _resolve("tage")


def resolve_tage_planes_kernel():
    """The C batch plane builder, or None to run the pure builder.

    Signature: ``(n, gparams, history, pcs, takens, out)``: ``gparams``
    is the int64 ``GP_*`` geometry row, ``history`` the int64 ``HS_*``
    block (read and advanced past the batch), ``pcs`` a uint64 column
    and ``takens`` an ``n``-byte outcome column; ``out`` (int64,
    ``(2 + 2 * n_tagged) * n`` entries) receives the batch's plane
    block in the layout :func:`resolve_tage_kernel` reads.
    """
    return _resolve("tage_planes")


def resolve_ogehl_kernel():
    """The C O-GEHL kernel, or None to run the pure kernel.

    Signature: ``(takens, planes, ctr_max, ctr_min, log_entries,
    predictions, high)`` with ``takens`` int64[n], ``planes``
    int64[n_tables, n] (precomputed per-table indices) and
    ``predictions``/``high`` uint8[n] outputs.
    """
    return _resolve("ogehl")


def resolve_counter_scan_kernel():
    """The C clamp-add counter scan, or None to run the NumPy scan.

    Signature: ``(state, indices, b, lo, hi, out)``, all C-contiguous
    int64: ``state`` int64[n_entries] is advanced in place past the
    whole chunk; ``indices``/``b``/``lo``/``hi`` are int64[n] and
    ``out`` (output) int64[n] receives the state each access read.
    Raises IndexError (before touching ``state``) for an index outside
    the table.
    """
    return _resolve("counter_scan")


def resolve_perceptron_kernel():
    """The C perceptron kernel, or None to run the NumPy lockstep kernel.

    Signature: ``(indices, windows, takens, history_length, n_rows,
    threshold, weight_min, weight_max, predictions, high)`` with
    ``indices``/``windows`` int64[n] (weight row and packed history
    window, newest outcome in bit 0), ``takens`` uint8[n] and
    ``predictions``/``high`` uint8[n] outputs.  The weight table starts
    zeroed and lives only for the call.
    """
    return _resolve("perceptron")


def resolve_trace_synth_kernel():
    """The C twin of one-shot trace synthesis, or None to run the pure
    :class:`~repro.traces.workload.SyntheticWorkload`.

    Signature: ``(seed, iparams, fparams, routine_cdf, n) -> (pcs,
    takens, insts)``: ``seed`` is the spec's seed modulo 2**64,
    ``iparams``/``fparams`` the int64 and float64 rows laid out above
    ``N_SYNTH_IPARAMS``, and ``routine_cdf(n_routines)`` returns the
    routine-popularity CDF once construction knows the routine count.
    The columns are an int64 :class:`array.array` of PCs, a 0/1
    ``bytearray`` of outcomes and an int64 array of instruction counts.
    """
    return _resolve("trace_synth")
