"""The C sum walk against the reference engine, branch for branch.

:func:`repro.sim.fast.compiled.resolve_sum_walk_kernel` runs a
perceptron (inputs from one carried global-history register) or an
O-GEHL predictor (indices from carried folded registers and an outcome
ring) over the trace's packed columns, from a caller-owned state block.
It has no pure twin, so its oracle is :func:`repro.sim.engine.step_batch`
— the one per-branch step loop — on the same components: the
per-branch predictions and self-confidence flags, the misprediction
count and the warm confusion must all match, and so must a JRS/eJRS
table fed the walk's predictions, however the trace is split into
batches.  Needs no NumPy; skips when the C build is unavailable.
"""

from __future__ import annotations

import pytest

from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.sim.backends import Cell
from repro.sim.engine import step_batch
from repro.sim.fast import compiled
from repro.sim.fast.counter_core import walk_counts, walk_params, walk_power_on
from repro.sim.fast.sum_core import sum_counts, sum_params, sum_power_on
from repro.sim.runner import get_trace
from repro.traces.types import Trace

BRANCHES = 6_000
WARMUP = 700


@pytest.fixture
def kernel(monkeypatch):
    monkeypatch.setenv(compiled.PROVIDER_ENV, "cext")
    kernel = compiled.resolve_sum_walk_kernel()
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
    "perceptron": lambda: PerceptronPredictor(),
    "perceptron-h1-w2": lambda: PerceptronPredictor(
        log_entries=6, history_length=1, weight_bits=2),
    "perceptron-h62-w2": lambda: PerceptronPredictor(
        log_entries=5, history_length=62, weight_bits=2),
    "perceptron-h62-w56": lambda: PerceptronPredictor(
        log_entries=7, history_length=62, weight_bits=56),
    "perceptron-h28-w56": lambda: PerceptronPredictor(
        log_entries=4, history_length=28, weight_bits=56),
    "ogehl": lambda: OgehlPredictor(),
    # A short series: duplicate bumping pushes the last length to 9,
    # past max_history=5, so the outcome ring is longer than asked.
    "ogehl-bumped": lambda: OgehlPredictor(
        n_tables=8, log_entries=8, counter_bits=3, min_history=3, max_history=5),
    "ogehl-long": lambda: OgehlPredictor(
        n_tables=5, log_entries=7, counter_bits=5, min_history=2,
        max_history=300),
    # From table 63 on, the index's PC shift moves every bit out.
    "ogehl-66-tables": lambda: OgehlPredictor(
        n_tables=66, log_entries=6, min_history=2, max_history=200),
}
JRS = {"jrs": JrsEstimator, "ejrs": EnhancedJrsEstimator}


def test_lengths_cover_the_ring_corners():
    assert OgehlPredictor(n_tables=8, min_history=3,
                          max_history=5).history_lengths[-1] == 9
    assert OgehlPredictor().history_lengths[-1] > 64
    assert OgehlPredictor(max_history=300).history_lengths[-1] == 300


def _walk(kernel, trace, predictor, batches):
    """Per-branch (predictions, high flags) and the final state block of
    one walk split at ``batches`` boundaries."""
    sparams = sum_params(predictor)
    state = sum_power_on(sparams)
    n = len(trace)
    predictions, high = bytearray(n), bytearray(n)
    cuts = [0, *batches, n]
    for start, stop in zip(cuts, cuts[1:]):
        kernel(stop - start, sparams, state, trace.pcs[start:stop],
               bytes(trace.takens[start:stop]),
               memoryview(predictions)[start:stop], memoryview(high)[start:stop])
    return bytes(predictions), bytes(high), state


def _confusion(predictions, high, takens, warmup):
    counts = [0, 0, 0, 0]
    for prediction, confident, taken in list(zip(predictions, high, takens))[warmup:]:
        counts[2 * (1 - confident) + (prediction != taken)] += 1
    return tuple(counts)


def _self_reference(make, trace):
    predictor = make()
    return step_batch(
        Cell(predictor, SelfConfidenceEstimator(predictor), binary=True),
        trace.pcs, trace.takens,
    )


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_walk_matches_step_batch(kernel, trace, predictor):
    """Self-confidence: the walk's columns are the reference stream, and
    their byte-column reduction is the reference counts."""
    make = PREDICTORS[predictor]
    predictions, high, _ = _walk(kernel, trace, make(), ())
    expected, codes = _self_reference(make, trace)
    assert predictions == bytes(expected)
    assert high == bytes(codes)
    misses, confusion = sum_counts(predictions, high, trace.takens, WARMUP)
    assert misses == sum(p != t for p, t in zip(expected, trace.takens))
    assert confusion == _confusion(expected, codes, trace.takens, WARMUP)


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_uneven_batches_equal_one_pass(kernel, trace, predictor):
    """A trace walked in uneven batches through one state block gives the
    same bytes and leaves the same state as one pass."""
    make = PREDICTORS[predictor]
    whole = _walk(kernel, trace, make(), ())
    split = _walk(kernel, trace, make(), (1, 2, 999, 1_000, 4_321))
    assert split == whole


@pytest.mark.parametrize("estimator", JRS)
@pytest.mark.parametrize("predictor", ["perceptron", "perceptron-h62-w56",
                                       "ogehl", "ogehl-bumped"])
def test_jrs_fed_by_the_walk(kernel, trace, predictor, estimator):
    """The walk's prediction stream is the counter walk's ``given``
    input: the JRS/eJRS table over it is the reference loop's."""
    make = PREDICTORS[predictor]
    predictions, _, _ = _walk(kernel, trace, make(), (3_000,))
    expected, codes = step_batch(
        Cell(make(), JRS[estimator](), binary=True), trace.pcs, trace.takens,
    )
    assert predictions == bytes(expected)
    cparams = walk_params(None, JRS[estimator](), WARMUP)
    state = walk_power_on(cparams)
    high = bytearray(len(trace))
    compiled.resolve_counter_walk_kernel()(
        len(trace), cparams, state, trace.pcs, trace.takens, predictions,
        None, high)
    assert high == bytes(codes)
    misses, confusion = walk_counts(state)
    assert misses == sum(p != t for p, t in zip(expected, trace.takens))
    assert confusion == _confusion(expected, codes, trace.takens, WARMUP)


def test_wide_pcs_walk_natively(kernel):
    wide = _wide_trace()
    for make in (PREDICTORS["perceptron"], PREDICTORS["ogehl"]):
        predictions, high, _ = _walk(kernel, wide, make(), (1_000,))
        expected, codes = _self_reference(make, wide)
        assert predictions == bytes(expected)
        assert high == bytes(codes)


def test_params_refuse_other_predictors():
    from repro.predictors.gshare import GsharePredictor

    with pytest.raises(TypeError, match="sum walk"):
        sum_params(GsharePredictor())


def test_kernel_refuses_malformed_blocks(kernel, trace):
    """Sizes and the O-GEHL ring geometry are checked before the C side
    reads through the block's raw address."""
    sparams = sum_params(OgehlPredictor())
    state = sum_power_on(sparams)
    n = 10
    columns = (trace.pcs[:n], bytes(trace.takens[:n]), bytearray(n), bytearray(n))
    with pytest.raises(ValueError, match="contiguous bytes"):
        kernel(n, sparams, state[:-1], *columns)
    state[compiled.SS_HEAD] = sparams[compiled.SP_HISTORY]
    with pytest.raises(ValueError, match="out of range"):
        kernel(n, sparams, state, *columns)
