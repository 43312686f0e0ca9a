"""The C counter walk against the reference engine, branch for branch.

:func:`repro.sim.fast.compiled.resolve_counter_walk_kernel` runs a
bimodal, gshare or local predictor and/or a JRS/eJRS table from one
carried global-history register (and a local predictor's carried
level-1 table), over the trace's packed columns.  It has no
pure twin, so its oracle is :func:`repro.sim.engine.step_batch` — the
one per-branch step loop — on the same components: the per-branch
predictions and high-confidence flags, the misprediction count and the
warm confusion must all match, however the trace is split into batches.
Needs no NumPy; skips when the C build is unavailable.
"""

from __future__ import annotations

import pytest

from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.confidence.metrics import BinaryConfidenceMetrics
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.sim.backends import Cell
from repro.sim.engine import simulate, simulate_binary, step_batch
from repro.sim.fast import compiled
from repro.sim.fast.counter_core import walk_counts, walk_params, walk_power_on
from repro.sim.runner import build_predictor, get_trace
from repro.traces.types import Trace

BRANCHES = 6_000


@pytest.fixture
def kernel(monkeypatch):
    monkeypatch.setenv(compiled.PROVIDER_ENV, "cext")
    kernel = compiled.resolve_counter_walk_kernel()
    if kernel is None:
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    return kernel


@pytest.fixture(scope="module")
def trace() -> Trace:
    return get_trace("SERV-1", BRANCHES)


def _wide_trace() -> Trace:
    """PCs from 2**63 up, from a 64-bit LCG (no library RNG)."""
    state, pcs, takens = 0x9E3779B97F4A7C15, [], []
    for _ in range(3_000):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        pcs.append((1 << 63) + ((state >> 40) & 0x7FF) * 4)
        takens.append(1 if (state >> 61) < 5 else 0)
    return Trace("wide", pcs, takens, [1] * len(pcs))


PREDICTORS = {
    "bimodal": lambda: BimodalPredictor(),
    "bimodal-3bit": lambda: BimodalPredictor(log_entries=10, counter_bits=3),
    "gshare": lambda: GsharePredictor(),
    "gshare-62": lambda: GsharePredictor(log_entries=12, history_length=62),
    "local": lambda: LocalHistoryPredictor(),
    "local-private": lambda: LocalHistoryPredictor(
        log_histories=6, history_length=8, log_pht=9, shared_pht=False),
    "local-62": lambda: LocalHistoryPredictor(
        log_histories=4, history_length=62, log_pht=14, shared_pht=False),
}
ESTIMATORS = {
    "none": lambda: None,
    "jrs": lambda: JrsEstimator(),
    "ejrs": lambda: EnhancedJrsEstimator(),
    "jrs-62": lambda: JrsEstimator(log_entries=10, counter_bits=3, threshold=5,
                                   history_length=62),
}


def _walk(kernel, trace, predictor, estimator, warmup, batches, given=None):
    """Per-branch (predictions, high flags) and the counts of one walk
    split at ``batches`` boundaries."""
    cparams = walk_params(predictor, estimator, warmup)
    state = walk_power_on(cparams)
    n = len(trace)
    predictions, high = bytearray(n), bytearray(n)
    cuts = [0, *batches, n]
    for start, stop in zip(cuts, cuts[1:]):
        kernel(stop - start, cparams, state, trace.pcs[start:stop],
               bytes(trace.takens[start:stop]),
               None if given is None else given[start:stop],
               memoryview(predictions)[start:stop], memoryview(high)[start:stop])
    return bytes(predictions), bytes(high), walk_counts(state)


def _confusion(predictions, high, takens, warmup):
    counts = [0, 0, 0, 0]
    for prediction, confident, taken in list(zip(predictions, high, takens))[warmup:]:
        counts[2 * (1 - confident) + (prediction != taken)] += 1
    return tuple(counts)


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("batches", [(), (1, 2_999, 3_000)], ids=["whole", "split"])
def test_walk_matches_step_batch(kernel, trace, predictor, estimator, batches):
    warmup = 700
    predictions, high, (misses, confusion) = _walk(
        kernel, trace, PREDICTORS[predictor](), ESTIMATORS[estimator](),
        warmup, batches)
    cell_estimator = ESTIMATORS[estimator]()
    expected, codes = step_batch(
        Cell(PREDICTORS[predictor](), cell_estimator,
             binary=cell_estimator is not None),
        trace.pcs, trace.takens,
    )
    assert predictions == bytes(expected)
    assert misses == sum(p != t for p, t in zip(expected, trace.takens))
    if cell_estimator is None:
        assert confusion == (0, 0, 0, 0)
        return
    assert high == bytes(codes)
    assert confusion == _confusion(expected, codes, trace.takens, warmup)


@pytest.mark.parametrize("estimator", ["jrs", "ejrs"])
def test_jrs_fed_by_a_published_tage_stream(kernel, trace, estimator):
    """Given predictions (a TAGE stream, as a lockstep unit publishes
    it) drive only the JRS table, exactly as the reference loop's
    assess/observe over that predictor."""
    reference, codes = step_batch(
        Cell(build_predictor("16K"), ESTIMATORS[estimator](), binary=True),
        trace.pcs, trace.takens,
    )
    _, high, (misses, confusion) = _walk(
        kernel, trace, None, ESTIMATORS[estimator](), 250, (2_048,),
        given=bytes(reference))
    assert high == bytes(codes)
    assert misses == sum(p != t for p, t in zip(reference, trace.takens))
    assert confusion == _confusion(reference, codes, trace.takens, 250)


@pytest.mark.parametrize("predictor", ["bimodal", "gshare", "local"])
@pytest.mark.parametrize("estimator", ["jrs", "ejrs"])
def test_engine_entry_points_match_reference(kernel, trace, predictor, estimator):
    """``simulate``/``simulate_binary`` on the fast backend (the walk)
    equal the reference engine, warmup included; so does a TAGE cell's
    JRS table, fed the TAGE kernel's stream."""
    for make in (PREDICTORS[predictor], lambda: build_predictor("16K")):
        assert (simulate(trace, make(), backend="fast")
                == simulate(trace, make()))
        fast = simulate_binary(trace, make(), ESTIMATORS[estimator](),
                               warmup_branches=333, backend="fast")
        reference = simulate_binary(trace, make(), ESTIMATORS[estimator](),
                                    warmup_branches=333)
        assert fast == reference
        assert isinstance(fast[0], BinaryConfidenceMetrics)


def test_wide_pcs_walk_natively(kernel):
    wide = _wide_trace()
    for make in (PREDICTORS["gshare"], PREDICTORS["local-private"]):
        predictions, high, _ = _walk(kernel, wide, make(),
                                     EnhancedJrsEstimator(), 0, (1_000,))
        expected, codes = step_batch(
            Cell(make(), EnhancedJrsEstimator(), binary=True),
            wide.pcs, wide.takens,
        )
        assert predictions == bytes(expected)
        assert high == bytes(codes)
