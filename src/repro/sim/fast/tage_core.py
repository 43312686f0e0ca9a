"""The numpy-free core of the TAGE fast path: resumable kernel state.

Everything the TAGE kernel needs, without NumPy, so the serving layer
can step a tenant on it:

* :func:`cell_inputs` / :func:`cell_params` — the one place a cell's
  predictor, estimator and §6.2 controller are read, packed into the
  ``IP_*``/``FP_*`` rows of :mod:`repro.sim.fast.compiled`;
* :func:`power_on` — a fresh caller-owned ``ST_*`` state block: every
  table, the random-source states, the §5/§6.2 counters and the branch
  tick the kernel resumes from;
* :func:`_kernel` — the pure ``tage-batch`` kernel, which runs one
  batch of plane rows from a state block and leaves it advanced;
* :func:`plane_params` / :func:`history_power_on` / :func:`_build_planes`
  — the pure ``tage-planes`` builder: one batch's outcome, bimodal,
  index and tag rows from a *carried* history (the folded registers,
  the path register and an outcome ring), instead of the trace-wide
  closed form of :func:`repro.sim.fast.planes.compute_planes`;
* :class:`ResumableTageCell` — a state block plus a carried history,
  stepped one batch at a time through one fused C call when the C
  build resolves and the pure builder and kernel otherwise.

Running a trace in any number of chunks through one state block and
one history is bit-identical to one uninterrupted run, because nothing
the kernel or the builder reads lives outside those two blocks.

Both pure kernels have an embedded-C twin in
:mod:`repro.sim.fast.compiled`.  Each pair forms an RPR004 parity group
(``tage-batch``, ``tage-planes``): the region between the ``repro:
parity-begin`` and ``repro: parity-end`` comments must change in
lockstep with the C side.  Both record the same group-wide fingerprint,
so ``repro lint`` fails when one side changes until the author has
updated the other, re-run the differential suites, and stamped the new
fingerprint printed in the finding — see
:mod:`repro.analysis.rules.parity` for the convention.
"""

from __future__ import annotations

from array import array

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.classes import (
    OBSERVATION_CLASS_CODES,
    ConfidenceLevel,
    confidence_level_of,
)
from repro.confidence.estimator import TageConfidenceEstimator
from repro.predictors.tage.config import AUTOMATON_PROBABILISTIC
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import FastBackendUnsupported
from repro.sim.fast import compiled
from repro.sim.fast.compiled import GP_COMPONENTS, GP_STRIDE, HS_FOLDS, ST_TABLES

__all__ = [
    "controller_unsupported_reason",
    "cell_inputs",
    "cell_params",
    "power_on",
    "cell_counts",
    "plane_geometry",
    "plane_params",
    "history_power_on",
    "ResumableTageCell",
]

_MASK32 = 0xFFFFFFFF
_LFSR_TAPS = 0xA3000000

#: Class codes the §6.2 controller counts (HIGH = high-conf-bim ∪ Stag),
#: derived from the canonical level mapping so the kernel can never
#: disagree with ``confidence_level_of``.
_HIGH_CLASS_CODES = frozenset(
    code
    for code, prediction_class in enumerate(OBSERVATION_CLASS_CODES)
    if confidence_level_of(prediction_class) is ConfidenceLevel.HIGH
)


def controller_unsupported_reason(predictor, controller) -> str | None:
    """Why the §6.2 controller cannot ride the kernel (None = it can).

    The single predicate behind both the kernel's raise and the
    dispatch/sweep-executor pre-pass in :mod:`repro.sim.fast.engine`,
    so they can never disagree.
    """
    if type(controller) is not AdaptiveSaturationController:
        return (
            f"controller {type(controller).__name__} is not the "
            "(non-subclassed) adaptive saturation controller"
        )
    if type(predictor) is not TagePredictor:
        return (
            "the adaptive saturation controller requires the "
            "(non-subclassed) TAGE predictor"
        )
    if controller.predictor is not predictor:
        return (
            "the adaptive controller steers a different predictor "
            "instance than the one being simulated"
        )
    if predictor.config.automaton != AUTOMATON_PROBABILISTIC:
        return (
            "the adaptive controller requires the probabilistic "
            "saturation automaton"
        )
    return None


def _check_tage_cell(predictor, estimator, controller=None) -> None:
    """Raise for anything outside the kernel's bit-exact family."""
    if type(predictor) is not TagePredictor:
        raise FastBackendUnsupported(
            f"predictor {getattr(predictor, 'name', type(predictor).__name__)!r} "
            "is not the (non-subclassed) TAGE predictor"
        )
    if estimator is not None and type(estimator) is not TageConfidenceEstimator:
        raise FastBackendUnsupported(
            f"estimator {type(estimator).__name__} is not the (non-subclassed) "
            "TAGE observation estimator"
        )
    if controller is not None:
        reason = controller_unsupported_reason(predictor, controller)
        if reason is not None:
            raise FastBackendUnsupported(reason)


def _live_sat_prob_log2(predictor) -> int | None:
    """The automaton's *current* saturation probability (None when the
    automaton is not probabilistic).  The §6.2 controller — or a direct
    assignment to ``saturation_probability_log2`` — may have moved it
    away from the config value, and the reference engine reads the live
    state."""
    if predictor.config.automaton != AUTOMATON_PROBABILISTIC:
        return None
    return predictor.automaton.sat_prob_log2


def cell_inputs(predictor, estimator, controller, warmup_branches: int):
    """Validate one TAGE cell and distil it to a :func:`cell_params`
    argument tuple ``(config, estimator_window, max_strength, warmup,
    initial_k, controller_params)`` — the single place the predictor/
    estimator/controller objects are read, shared by the offline entry
    points, the lockstep batch runner and served sessions.

    Raises:
        FastBackendUnsupported: for cells outside the kernel's family.
    """
    if warmup_branches < 0:
        raise ValueError(
            f"warmup_branches must be non-negative, got {warmup_branches}"
        )
    _check_tage_cell(predictor, estimator, controller)

    if estimator is None:
        estimator_window = None
        max_strength = 0
    else:
        estimator_window = estimator.bim_miss_window
        max_strength = (1 << estimator.predictor.config.ctr_bits) - 1

    # The controller only receives observations when an estimator is
    # attached (exactly like the reference loop); without one it never
    # adapts and only reports its starting probability.
    controller_params = None
    if controller is not None and estimator is not None:
        controller_params = (
            controller.target_mkp,
            controller.window,
            controller.min_log2,
            controller.max_log2,
            controller.relax_fraction,
        )

    return (predictor.config, estimator_window, max_strength,
            warmup_branches, _live_sat_prob_log2(predictor),
            controller_params)


def cell_params(config, estimator_window, max_strength, warmup,
                initial_k, controller_params) -> tuple[array, array]:
    """One cell's packed ``(iparams, fparams)`` rows (int64, float64).

    Every config read of the kernel happens here: the seed masking and
    defaulting, the live ``initial_k`` override of the config's
    ``sat_prob_log2`` (the §6.2 controller may have moved it before the
    run) and the controller's ``(target_mkp, window, min_log2,
    max_log2, relax_fraction)``.  :func:`power_on` derives the initial
    state from these rows, so the two can never disagree.  Layout:
    :mod:`repro.sim.fast.compiled` ``IP_*`` / ``FP_*`` slots.
    """
    prob_enabled = config.automaton == AUTOMATON_PROBABILISTIC
    if prob_enabled:
        prob_k = config.sat_prob_log2 if initial_k is None else initial_k
    else:
        prob_k = 0
    if controller_params is not None:
        ctrl_target, ctrl_window, ctrl_min, ctrl_max, ctrl_relax = (
            controller_params
        )
    else:
        ctrl_target = 0.0
        ctrl_window = ctrl_min = ctrl_max = 0
        ctrl_relax = 0.0
    iparams = array("q", [
        config.log_tagged,
        (1 << (config.ctr_bits - 1)) - 1,
        -(1 << (config.ctr_bits - 1)),
        (1 << config.u_bits) - 1,
        config.u_reset_period,
        1 if config.use_alt_on_na_enabled else 0,
        (1 << (config.use_alt_on_na_bits - 1)) - 1,
        -(1 << (config.use_alt_on_na_bits - 1)),
        1 if config.update_alt_when_u_zero else 0,
        1 if config.allocation_policy == "randomized" else 0,
        1 if prob_enabled else 0,
        prob_k,
        config.lfsr_seed & _MASK32 or 0xDEADBEEF,
        config.alloc_seed & _MASK32 or 0x12345678,
        -1 if estimator_window is None else estimator_window,
        max_strength,
        warmup,
        ctrl_window,
        ctrl_min,
        ctrl_max,
        sum(1 << code for code in _HIGH_CLASS_CODES),
        config.log_bimodal,
        config.n_tagged,
    ])
    return iparams, array("d", [float(ctrl_target), float(ctrl_relax)])


def power_on(iparams) -> array:
    """A freshly powered-on ``ST_*`` state block (int64) for one cell.

    Tagged ctr/tag/u tables zeroed and bimodal counters weakly taken,
    like :class:`~repro.predictors.tage.predictor.TagePredictor`; the
    random sources at their seeds and the saturation probability at
    the packed (live) value.
    """
    words = compiled.state_words(iparams)
    state = compiled.int64_block(
        words, words - (1 << iparams[compiled.IP_LOG_BIMODAL]), words, 2)
    est_window = iparams[compiled.IP_EST_WINDOW]
    prob_k = iparams[compiled.IP_PROB_K]
    state[compiled.ST_LFSR] = iparams[compiled.IP_LFSR_SEED]
    state[compiled.ST_ALLOC] = iparams[compiled.IP_ALLOC_SEED]
    state[compiled.ST_PROB_K] = prob_k
    state[compiled.ST_SINCE_MISS] = est_window if est_window >= 0 else 0
    state[compiled.ST_COUNTS + compiled.CT_FINAL_PROB_K] = (
        prob_k if iparams[compiled.IP_PROB_ENABLED] else -1
    )
    return state


def cell_counts(state) -> tuple:
    """``(mispredictions, per-class predictions, per-class
    mispredictions, live sat-prob log2 or None)`` accumulated in a
    state block."""
    mispredictions, *counts, final_k = state[compiled.ST_COUNTS:ST_TABLES]
    return (mispredictions, counts[:7], counts[7:],
            final_k if final_k >= 0 else None)


# repro: parity-begin tage-batch/pure fingerprint=c788c8d8
def _kernel(rows, iparams, fparams, state, want_predictions: bool,
            want_classes: bool):
    """Advance one cell over a batch of plane rows; returns the
    per-branch (predictions, class codes) lists, each None unless
    wanted.  Everything below is deliberately inlined — this loop is
    the pure kernel's only per-branch cost.

    ``rows`` holds the outcome row, the bimodal index row, then the
    tagged index rows and the tagged tag rows (``TagePlanes.data[1:]``
    or a :func:`_build_planes` batch).  ``state`` is the cell's
    :func:`power_on` block: the kernel resumes from it and writes it
    back advanced, including the accumulated ``CT_*`` counts.  The §6.2
    feedback counts high-confidence predictions exactly like
    :meth:`AdaptiveSaturationController.observe` and adapts the
    probability at window boundaries *before* the branch's own counter
    update, so the LFSR draw stream is identical to the reference
    engine's."""
    (log_tagged, cmax, cmin, u_max, u_reset, use_alt_enabled, use_alt_max,
     use_alt_min, update_alt, randomized, prob_enabled, _, _, _,
     estimator_window, max_strength, warmup, ctrl_window, ctrl_min,
     ctrl_max, high_mask, _, n_tagged) = iparams
    ctrl_target, ctrl_relax = fparams
    (use_alt, lfsr_state, alloc_state, prob_k, since_miss, ctrl_high,
     ctrl_misp, tick, mispredictions, *counts) = state[:ST_TABLES]
    pred_counts = counts[:7]
    misp_counts = counts[7:14]

    takens = rows[0]
    bim_idx = rows[1]
    idx_planes = rows[2:2 + n_tagged]
    tag_planes = rows[2 + n_tagged:2 + 2 * n_tagged]

    size = 1 << log_tagged
    tables = [
        state[ST_TABLES + k * size:ST_TABLES + (k + 1) * size].tolist()
        for k in range(3 * n_tagged)
    ]
    ctr_tables = tables[:n_tagged]
    tag_tables = tables[n_tagged:2 * n_tagged]
    u_tables = tables[2 * n_tagged:]
    bimodal_base = ST_TABLES + 3 * n_tagged * size
    bimodal = state[bimodal_base:].tolist()

    def update_ctr(ctrs: list, index: int, taken: int) -> None:
        """Saturating counter step, standard or §6 probabilistic.

        Replicates the reference LFSR draw exactly: ``sat_prob_log2``
        Galois steps, consumed only on the transition into saturation
        (and none at all when the probability is 1)."""
        nonlocal lfsr_state
        c = ctrs[index]
        if taken:
            if c >= cmax:
                return
            if prob_enabled and c == cmax - 1 and prob_k:
                draw = lfsr_state
                any_set = 0
                for _ in range(prob_k):
                    lsb = draw & 1
                    draw >>= 1
                    if lsb:
                        draw ^= _LFSR_TAPS
                        any_set = 1
                lfsr_state = draw
                if any_set:
                    return
            ctrs[index] = c + 1
        else:
            if c <= cmin:
                return
            if prob_enabled and c == cmin + 1 and prob_k:
                draw = lfsr_state
                any_set = 0
                for _ in range(prob_k):
                    lsb = draw & 1
                    draw >>= 1
                    if lsb:
                        draw ^= _LFSR_TAPS
                        any_set = 1
                lfsr_state = draw
                if any_set:
                    return
            ctrs[index] = c - 1

    predictions: list | None = [] if want_predictions else None
    class_codes: list | None = [] if want_classes else None

    for t in range(len(takens)):
        taken = takens[t]

        # -- provider scan: longest hitting component, then the next one.
        provider = 0
        provider_idx = 0
        alt = 0
        alt_idx = 0
        i = n_tagged - 1
        while i >= 0:
            idx = idx_planes[i][t]
            if tag_tables[i][idx] == tag_planes[i][t]:
                if provider:
                    alt = i + 1
                    alt_idx = idx
                    break
                provider = i + 1
                provider_idx = idx
            i -= 1

        bidx = bim_idx[t]
        bctr = bimodal[bidx]

        # -- prediction (§3.1): provider sign, unless USE_ALT_ON_NA
        #    redirects a weak provider to the alternate prediction.
        if provider:
            ctr = ctr_tables[provider - 1][provider_idx]
            provider_pred = ctr >= 0
            weak = -1 <= ctr <= 0
            altpred = (
                ctr_tables[alt - 1][alt_idx] >= 0 if alt else bctr >= 2
            )
            if weak and use_alt_enabled and use_alt >= 0:
                prediction = altpred
            else:
                prediction = provider_pred
        else:
            ctr = bctr
            prediction = provider_pred = altpred = bctr >= 2
            weak = False

        mispredicted = prediction != taken
        if mispredicted:
            mispredictions += 1
        if predictions is not None:
            predictions.append(prediction)

        # -- §5 observation: classify from the pre-update table outputs.
        if estimator_window >= 0:
            if provider:
                strength = 2 * ctr + 1
                if strength < 0:
                    strength = -strength
                if strength == 1:
                    cls = 6  # Wtag
                elif strength == max_strength:
                    cls = 3  # Stag
                elif strength == max_strength - 2:
                    cls = 4  # NStag
                else:
                    cls = 5  # NWtag
            elif bctr == 1 or bctr == 2:
                cls = 1  # low-conf-bim
            elif since_miss < estimator_window:
                cls = 2  # medium-conf-bim
            else:
                cls = 0  # high-conf-bim
            if class_codes is not None:
                class_codes.append(cls)
            if tick >= warmup:
                pred_counts[cls] += 1
                if mispredicted:
                    misp_counts[cls] += 1
            if not provider:
                if mispredicted:
                    since_miss = 0
                elif since_miss < estimator_window:
                    since_miss += 1

            # -- §6.2 adaptive feedback, mirroring the reference order:
            #    the controller observes (and may move the saturation
            #    probability) *before* this branch's counter update.
            if ctrl_window and (high_mask >> cls) & 1:
                ctrl_high += 1
                if mispredicted:
                    ctrl_misp += 1
                if ctrl_high >= ctrl_window:
                    rate_mkp = 1000.0 * ctrl_misp / ctrl_high
                    if rate_mkp > ctrl_target and prob_k < ctrl_max:
                        prob_k += 1
                    elif rate_mkp < ctrl_target * ctrl_relax and prob_k > ctrl_min:
                        prob_k -= 1
                    ctrl_high = 0
                    ctrl_misp = 0

        # -- update (§3.2/§3.3), in the reference engine's exact order.
        allocate = mispredicted and provider < n_tagged
        if provider and weak:
            if provider_pred == taken:
                allocate = False
            if provider_pred != altpred:
                if altpred == taken:
                    if use_alt < use_alt_max:
                        use_alt += 1
                elif use_alt > use_alt_min:
                    use_alt -= 1

        if allocate:
            start = provider + 1
            if randomized:
                x = alloc_state
                while start < n_tagged:
                    x ^= (x << 13) & _MASK32
                    x ^= x >> 17
                    x ^= (x << 5) & _MASK32
                    if not x & 1:
                        break
                    start += 1
                alloc_state = x
            allocated = False
            for j in range(start - 1, n_tagged):
                idx = idx_planes[j][t]
                if u_tables[j][idx] == 0:
                    ctr_tables[j][idx] = 0 if taken else -1
                    tag_tables[j][idx] = tag_planes[j][t]
                    allocated = True
                    break
            if not allocated:
                for j in range(start - 1, n_tagged):
                    idx = idx_planes[j][t]
                    if u_tables[j][idx] > 0:
                        u_tables[j][idx] -= 1

        if provider:
            p = provider - 1
            update_ctr(ctr_tables[p], provider_idx, taken)
            pu = u_tables[p]
            if update_alt and pu[provider_idx] == 0:
                if alt:
                    update_ctr(ctr_tables[alt - 1], alt_idx, taken)
                elif taken:
                    if bimodal[bidx] < 3:
                        bimodal[bidx] += 1
                elif bimodal[bidx] > 0:
                    bimodal[bidx] -= 1
            if provider_pred != altpred:
                uv = pu[provider_idx]
                if provider_pred == taken:
                    if uv < u_max:
                        pu[provider_idx] = uv + 1
                elif uv > 0:
                    pu[provider_idx] = uv - 1
        elif taken:
            if bctr < 3:
                bimodal[bidx] = bctr + 1
        elif bctr > 0:
            bimodal[bidx] = bctr - 1

        # -- graceful periodic aging of the u counters.
        tick += 1
        if tick % u_reset == 0:
            for u in u_tables:
                u[:] = [value >> 1 for value in u]

    for k, table in enumerate(tables):
        state[ST_TABLES + k * size:ST_TABLES + (k + 1) * size] = array("q", table)
    state[bimodal_base:] = array("q", bimodal)
    state[:ST_TABLES] = array("q", [
        use_alt, lfsr_state, alloc_state, prob_k, since_miss, ctrl_high,
        ctrl_misp, tick, mispredictions, *pred_counts, *misp_counts,
        prob_k if prob_enabled else -1,
    ])
    return predictions, class_codes
# repro: parity-end tage-batch/pure


def plane_geometry(config) -> tuple:
    """The hashable geometry key of a :class:`TageConfig`'s planes.

    Only the parameters the index/tag hashes read participate: the
    bimodal index width and the per-component
    :meth:`~repro.predictors.tage.config.TageConfig.component_geometries`
    tuples.  Counter widths, automaton choice and seeds deliberately do
    not, so ablations over them share materializations.
    """
    return (config.log_bimodal, config.component_geometries())


def plane_params(geometry: tuple) -> array:
    """The ``GP_*`` geometry row (int64) of the batch plane builder."""
    log_bimodal, components = geometry
    row = [
        len(components),
        log_bimodal,
        max(path_bits for *_, path_bits in components),
        max(length for _, _, _, length, _ in components),
    ]
    for component in components:
        row.extend(component)
    return array("q", row)


def history_power_on(gparams) -> array:
    """An empty carried history (``HS_*`` block, int64): zeroed path
    register, folded registers and outcome ring, as at power-on."""
    return compiled.int64_block(compiled.history_words(gparams))


# repro: parity-begin tage-planes/pure fingerprint=f6163271
def _build_planes(gparams, history, pcs, takens) -> list:
    """One batch's plane rows from a carried history.

    Returns ``[outcomes, bimodal indices, T1..TM indices, T1..TM
    tags]`` — row for row what :func:`~repro.sim.fast.planes.
    compute_planes` puts in ``data[1:]`` for the same branches — and
    leaves ``history`` advanced past the batch.  Each tagged component
    hashes the PC with its three folded registers (index, tag, tag-1
    widths) and its path window, then its registers take the
    :class:`~repro.common.history.FoldedHistory` step with the outcome
    entering and the one ``length`` branches old leaving, read from the
    outcome ring."""
    m, log_bimodal, register_bits, capacity = gparams[:GP_COMPONENTS]
    bmask = (1 << log_bimodal) - 1
    path_mask = (1 << register_bits) - 1
    components = [
        gparams[GP_COMPONENTS + GP_STRIDE * i:GP_COMPONENTS + GP_STRIDE * (i + 1)]
        for i in range(m)
    ]
    # Per component: (pc shift, index width, index mask, tag mask,
    # path mask, history length, then (width, mask, eviction position)
    # of the index, tag and tag-1 folds).
    hashes = []
    for table_number, log_entries, tag_bits, length, path_bits in components:
        tag_b_bits = max(tag_bits - 1, 1)
        hashes.append((
            table_number + 1, log_entries, (1 << log_entries) - 1,
            (1 << tag_bits) - 1, (1 << path_bits) - 1, length,
            tuple((width, (1 << width) - 1, length % width)
                  for width in (log_entries, tag_bits, tag_b_bits)),
        ))
    path, head = history[:HS_FOLDS]
    folds = history[HS_FOLDS:HS_FOLDS + 3 * m].tolist()
    ring = history[HS_FOLDS + 3 * m:].tolist()

    taken_row = []
    bimodal_row = []
    index_rows = [[] for _ in range(m)]
    tag_rows = [[] for _ in range(m)]
    for t in range(len(pcs)):
        pc = pcs[t]
        taken = 1 if takens[t] else 0
        pc_part = pc >> 2
        taken_row.append(taken)
        bimodal_row.append(pc_part & bmask)
        for i in range(m):
            (shift, log_entries, index_mask, tag_mask, window_mask, length,
             folding) = hashes[i]
            window = path & window_mask
            path_part = 0
            while window:
                path_part ^= window & index_mask
                window >>= log_entries
            index_rows[i].append(
                (pc_part ^ (pc_part >> shift) ^ folds[i] ^ path_part) & index_mask
            )
            tag_rows[i].append(
                (pc_part ^ folds[m + i] ^ (folds[2 * m + i] << 1)) & tag_mask
            )
            outgoing = ring[head - length]
            slot = i
            for width, fold_mask, out_pos in folding:
                comp = (folds[slot] << 1) | taken
                comp ^= outgoing << out_pos
                comp ^= comp >> width
                folds[slot] = comp & fold_mask
                slot += m
        ring[head] = taken
        head += 1
        if head == capacity:
            head = 0
        path = ((path << 1) | (pc & 1)) & path_mask

    history[:] = array("q", [path, head, *folds, *ring])
    return [taken_row, bimodal_row, *index_rows, *tag_rows]
# repro: parity-end tage-planes/pure


#: :attr:`ResumableTageCell._fused` before the cell's first step.
_UNRESOLVED = object()


class ResumableTageCell:
    """One TAGE × §5 observation cell (optionally with the §6.2
    controller) as caller-owned kernel state, stepped per batch.

    Holds the cell's packed parameter rows, its :func:`power_on` state
    block and its carried plane history — nothing else: the predictor,
    estimator and controller objects are read once, at construction,
    and dropped.  Each :meth:`step` is one fused C call (the batch's
    plane rows, then the kernel over them) when the
    ``REPRO_COMPILED_PROVIDER`` policy resolves the C build, and the
    pure builder and kernel otherwise (the two are bit-identical).  The
    cell resolves its leg once, at its first step — so a served session
    loads the C build at its first OBSERVE, not at HELLO — and keeps it.

    Raises:
        FastBackendUnsupported: at construction, for cells outside the
            kernel's family.
    """

    __slots__ = ("iparams", "fparams", "state", "gparams", "history", "_fused")

    def __init__(self, predictor, estimator, controller=None) -> None:
        cell = cell_inputs(predictor, estimator, controller, 0)
        self.iparams, self.fparams = cell_params(*cell)
        self.state = power_on(self.iparams)
        self.gparams = plane_params(plane_geometry(predictor.config))
        self.history = history_power_on(self.gparams)
        self._fused = _UNRESOLVED

    @property
    def observed(self) -> int:
        """Branches stepped so far."""
        return self.state[compiled.ST_TICK]

    @property
    def mispredictions(self) -> int:
        """Mispredicted branches so far."""
        return self.state[compiled.ST_COUNTS + compiled.CT_MISPREDICTIONS]

    def step(self, pcs, takens) -> tuple[bytes, bytes]:
        """Advance over one batch; ``(predictions, class codes)`` back.

        ``pcs`` are unsigned 64-bit branch addresses and ``takens`` the
        resolved outcomes (truthy = taken), in trace order.  A u64
        ``array('Q')`` pc column and a ``bytes``/``bytearray`` outcome
        column reach the C step as they are; other columns are packed
        first.
        """
        fused = self._fused
        if fused is _UNRESOLVED:
            fused = self._fused = compiled.resolve_tage_step_kernel()
        if fused is None:
            rows = _build_planes(self.gparams, self.history, pcs, takens)
            predictions, codes = _kernel(
                rows, self.iparams, self.fparams, self.state, True, True
            )
            return bytes(predictions), bytes(codes)
        if type(pcs) is not array or pcs.typecode != "Q":
            pcs = array("Q", pcs)
        if not isinstance(takens, (bytes, bytearray)):
            takens = bytes(map(bool, takens))
        n = len(pcs)
        predictions = bytearray(n)
        codes = bytearray(n)
        fused(n, self.gparams, self.history, pcs, takens, self.iparams,
              self.fparams, self.state, predictions, codes)
        return bytes(predictions), bytes(codes)
