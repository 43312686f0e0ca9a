"""The fast backend's control plane: which cells it runs, on which leg.

Everything here is NumPy-free, so the sweep executor's pre-pass, the
``simulate``/``observe_trace`` dispatchers, the serving layer and the
CLI can judge a cell without loading the kernels' dependencies.

Each supported cell runs on one of two legs:

* **C leg** — the C provider of :mod:`repro.sim.fast.compiled`
  resolves, and every supported cell's whole path is compiled: TAGE
  (with the §5 estimator and the §6.2 controller, or feeding a
  JRS/eJRS table), bimodal/gshare/local on the counter walk and
  perceptron/O-GEHL on the sum walk, with or without a JRS/eJRS table
  or self-confidence.  These read the trace's packed columns directly
  and never import NumPy;
* **NumPy leg** — every cell when no C build serves the process.

:func:`cell_capability` is the single support predicate; on an install
without NumPy it refuses exactly the cells whose leg needs NumPy (all
of them without the C build, none with it), with the typed ``NumPy is
unavailable`` reason.
"""

from __future__ import annotations

from functools import cache

from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.backends import Capability
from repro.sim.fast import compiled
from repro.sim.fast.arrays import MAX_WINDOW_BITS
from repro.sim.fast.tage_core import cell_inputs, controller_unsupported_reason

__all__ = [
    "MAX_PATH_HISTORY_BITS",
    "MAX_PERCEPTRON_WEIGHT_BITS",
    "SUM_PREDICTORS",
    "WALK_PREDICTORS",
    "cell_capability",
    "predictor_reason",
    "unsupported_reason",
    "binary_unsupported_reason",
    "jrs_reason",
    "prediction_stream_key",
]

#: Longest path-history register whose packed per-branch window fits an
#: int64 lane (one shared bound for every window-based kernel).
MAX_PATH_HISTORY_BITS = MAX_WINDOW_BITS

#: Widest perceptron weight the int64 weight table can hold with the
#: batched dot provably overflow-free: |total| <= (h+1) * 2**(wb-1)
#: with h <= 62 needs wb - 1 + log2(63) < 63.
MAX_PERCEPTRON_WEIGHT_BITS = 56

#: The sum-based predictors whose kernels also emit self-confidence.
SUM_PREDICTORS = (PerceptronPredictor, OgehlPredictor)

#: The counter predictors the C counter walk runs itself.
WALK_PREDICTORS = (BimodalPredictor, GsharePredictor, LocalHistoryPredictor)

#: The configuration each non-TAGE fast kernel reads off its predictor:
#: everything that predictor's stream depends on besides the trace.
_STREAM_FIELDS = {
    BimodalPredictor: ("log_entries", "counter_bits"),
    GsharePredictor: ("log_entries", "history_length"),
    LocalHistoryPredictor: ("log_histories", "history_length", "log_pht",
                            "shared_pht"),
    PerceptronPredictor: ("log_entries", "history_length", "weight_bits",
                          "threshold"),
    OgehlPredictor: ("n_tables", "log_entries", "counter_bits",
                     "history_lengths"),
}


def prediction_stream_key(predictor) -> tuple:
    """The :meth:`~repro.sim.fast.arrays.TraceArrays.derived` key of a
    supported predictor's per-branch stream: its type and the
    configuration its kernel reads.

    For TAGE that is the config (which carries the LFSR and allocation
    seeds) and the live saturation probability the kernel starts from.
    The §5 estimator only observes and the warmup split only gates
    counting, so a multi-class TAGE cell without a §6.2 controller
    produces the same stream as the bare predictor.
    """
    kind = type(predictor)
    if kind is TagePredictor:
        config, _, _, _, initial_k, _ = cell_inputs(predictor, None, None, 0)
        return ("tage", config, initial_k)
    return (kind.__name__, *(
        tuple(value) if isinstance(value, list) else value
        for value in (getattr(predictor, name) for name in _STREAM_FIELDS[kind])
    ))


def predictor_reason(predictor) -> str | None:
    """Why this predictor cannot run on the fast backend (None = it can)."""
    if type(predictor) is TagePredictor:
        # The kernel's real bound is the per-component effective path
        # window min(path_history_bits, history_length) — the quantity
        # the plane builders pack into an int64 lane — not the raw
        # register width.
        effective_path_bits = max(
            path_bits for *_, path_bits in predictor.config.component_geometries()
        )
        if effective_path_bits > MAX_PATH_HISTORY_BITS:
            return (
                f"TAGE path_history_bits window of {effective_path_bits} bits "
                f"exceeds the vectorized window width ({MAX_PATH_HISTORY_BITS} bits)"
            )
        return None
    if type(predictor) in (GsharePredictor, PerceptronPredictor, LocalHistoryPredictor):
        if predictor.history_length > MAX_WINDOW_BITS:
            return (
                f"{predictor.name} history_length {predictor.history_length} "
                f"exceeds the vectorized window width ({MAX_WINDOW_BITS} bits)"
            )
        if (
            type(predictor) is PerceptronPredictor
            and predictor.weight_bits > MAX_PERCEPTRON_WEIGHT_BITS
        ):
            return (
                f"perceptron weight_bits {predictor.weight_bits} exceeds the "
                f"int64 weight-table width ({MAX_PERCEPTRON_WEIGHT_BITS} bits)"
            )
        return None
    if type(predictor) in (BimodalPredictor, OgehlPredictor):
        return None
    return (
        f"predictor {getattr(predictor, 'name', type(predictor).__name__)!r} "
        "is not vectorizable (supported: bimodal, gshare, local, tage, "
        "perceptron, ogehl)"
    )


def unsupported_reason(predictor, estimator=None, controller=None) -> str | None:
    """Why :func:`~repro.sim.fast.engine.simulate_fast` would refuse
    this cell (None = it runs)."""
    if controller is not None:
        reason = controller_unsupported_reason(predictor, controller)
        if reason is not None:
            return reason
    reason = predictor_reason(predictor)
    if reason is not None:
        return reason
    if estimator is None:
        return None
    if type(predictor) is not TagePredictor:
        return (
            "the multi-class TAGE observation estimator requires the "
            "(non-subclassed) TAGE predictor"
        )
    if type(estimator) is not TageConfidenceEstimator:
        return (
            f"estimator {type(estimator).__name__} is not the (non-subclassed) "
            "TAGE observation estimator"
        )
    return None


def binary_unsupported_reason(predictor, estimator) -> str | None:
    """Why :func:`~repro.sim.fast.engine.simulate_binary_fast` would
    refuse this cell (None = it runs)."""
    reason = predictor_reason(predictor)
    if reason is not None:
        return reason
    if type(estimator) is SelfConfidenceEstimator:
        if type(predictor) not in SUM_PREDICTORS:
            return (
                "self-confidence estimation requires a (non-subclassed) "
                "sum-based predictor (perceptron, ogehl)"
            )
        if estimator.predictor is not predictor:
            return (
                "the self-confidence estimator observes a different "
                "predictor instance than the one being simulated"
            )
        return None
    if type(estimator) not in (JrsEstimator, EnhancedJrsEstimator):
        return (
            f"estimator {type(estimator).__name__} is not vectorizable "
            "(supported: JrsEstimator, EnhancedJrsEstimator, "
            "SelfConfidenceEstimator)"
        )
    return jrs_reason(estimator)


def jrs_reason(estimator) -> str | None:
    """Why a JRS-family table cannot run on either leg (None = it can).

    Shared by :func:`binary_unsupported_reason` and the kernels, so the
    dispatch pre-pass and the kernel can never disagree about the int64
    bounds.
    """
    if estimator.history_length > MAX_WINDOW_BITS:
        return (
            f"JRS history_length {estimator.history_length} exceeds the "
            f"vectorized window width ({MAX_WINDOW_BITS} bits)"
        )
    if estimator.counter_bits > MAX_WINDOW_BITS:
        return (
            f"JRS counter_bits {estimator.counter_bits} exceeds the int64 "
            f"counter width ({MAX_WINDOW_BITS} bits)"
        )
    return None


@cache
def _numpy_reason() -> str | None:
    """Why NumPy cannot be imported (None = it can); probed once."""
    try:
        import numpy  # noqa: F401 — the NumPy leg's one dependency
    except ImportError as error:
        return f"NumPy is unavailable ({error})"
    return None


def cell_capability(cell) -> Capability:
    """The fast backend's :class:`~repro.sim.backends.Capability` for a
    :class:`~repro.sim.backends.Cell`.

    This is the single support predicate behind
    ``get_backend("fast").capability(cell)`` — the dispatching entry
    points, the sweep executor's warn-once fallback pass, the serve
    layer and the CLI all read the same verdict (and the same ``reason``
    wording) from here.  Beyond the verdict it reports *how* the cell
    would run: whether the C kernel build serves it under the current
    ``REPRO_COMPILED_PROVIDER`` setting (and which provider), and
    whether it can join a multi-cell lockstep batch.  NumPy is probed
    only for a cell whose leg needs it, so judging a C-leg cell never
    loads it.
    """
    if cell.binary:
        if cell.controller is not None:
            reason = (
                "the adaptive saturation controller does not apply to "
                "the binary confidence protocol"
            )
        else:
            reason = binary_unsupported_reason(cell.predictor, cell.estimator)
    else:
        reason = unsupported_reason(
            cell.predictor, estimator=cell.estimator, controller=cell.controller
        )
    # Every supported cell's sequential stage has a C build (TAGE, the
    # sum walk behind perceptron/O-GEHL and the counter walk behind
    # bimodal/gshare/local/JRS), so the provider alone decides whether
    # the cell runs on the NumPy leg.
    provider = compiled.active_provider()
    if reason is None and provider is None:
        reason = _numpy_reason()
    if reason is not None:
        return Capability(
            backend="fast", supported=False, reason=reason,
            fallback="reference",
        )
    # Lockstep batching fuses the TAGE cells (multi-class and
    # JRS-family) sharing one plane geometry.
    return Capability(
        backend="fast",
        supported=True,
        compiled=provider is not None,
        compiled_provider=provider,
        lockstep=type(cell.predictor) is TagePredictor,
    )
