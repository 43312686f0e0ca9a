"""Resumable TAGE kernel state and the batch plane builder.

The ``tage-batch`` kernel runs from a caller-owned state block and the
``tage-planes`` builder from a carried history, so a trace cut into any
chunks — empty and one-branch ones included — must give bit-identical
decisions and end state to one uninterrupted run, across a ``u`` aging
tick, §6.2 controller windows and probabilistic-LFSR draws.  And the
builder's batch rows, concatenated, must equal the trace-wide closed
form of :func:`repro.sim.fast.planes.compute_planes`.  Every check runs
on both kernel legs, and the C builder is checked against the pure one.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.predictors.tage.config import AUTOMATON_PROBABILISTIC, TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.fast import TraceArrays, compiled, compute_planes
from repro.sim.fast.tage_core import (
    ResumableTageCell,
    _build_planes,
    _kernel,
    cell_inputs,
    cell_params,
    history_power_on,
    plane_geometry,
    plane_params,
    power_on,
)
from repro.sim.observe import observe_trace
from repro.traces.workload import SyntheticWorkload, WorkloadSpec

KERNEL_LEGS = ("none", "cext")


@pytest.fixture(params=KERNEL_LEGS)
def kernel_leg(request, monkeypatch):
    """Pin one kernel leg (``cext`` skips without the C build)."""
    leg = request.param
    monkeypatch.setenv(compiled.PROVIDER_ENV, leg)
    if leg == "cext" and compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    return leg


def _chunks(n: int, seed: int) -> list[tuple[int, int]]:
    """Random ``[start, stop)`` cuts of ``range(n)``, with empty and
    one-branch chunks mixed in."""
    rng = random.Random(seed)
    cuts = []
    start = 0
    while start < n:
        size = rng.choice((0, 1, rng.randint(2, 40), rng.randint(41, 900)))
        stop = min(n, start + size)
        cuts.append((start, stop))
        start = stop
    cuts.insert(rng.randrange(len(cuts) + 1), (start, start))
    return cuts


def _cell(name: str):
    """(predictor, estimator, controller) corners for resumption."""
    if name == "ureset":
        predictor = TagePredictor(TageConfig.small(u_reset_period=333))
        return predictor, TageConfidenceEstimator(predictor), None
    if name == "prob-lfsr":
        predictor = TagePredictor(TageConfig.small(
            automaton=AUTOMATON_PROBABILISTIC, sat_prob_log2=3,
            u_reset_period=1000, update_alt_when_u_zero=True,
        ))
        return predictor, TageConfidenceEstimator(predictor), None
    if name == "adaptive":
        predictor = TagePredictor(TageConfig.medium(
            automaton=AUTOMATON_PROBABILISTIC, u_reset_period=777,
        ))
        controller = AdaptiveSaturationController(
            predictor, target_mkp=5.0, window=64, max_log2=9,
        )
        return predictor, TageConfidenceEstimator(predictor), controller
    raise KeyError(name)


CELLS = ("ureset", "prob-lfsr", "adaptive")


def _run(rows, iparams, fparams, state):
    """One kernel call over ``rows`` (a ``data[1:]`` slice) on the
    pinned leg; (predictions, class codes) as byte strings."""
    kernel = compiled.resolve_tage_kernel()
    if kernel is None:
        predictions, codes = _kernel(rows.tolist(), iparams, fparams, state,
                                     True, True)
        return bytes(predictions), bytes(codes)
    n = rows.shape[1]
    predictions = bytearray(n)
    codes = bytearray(n)
    kernel(np.ascontiguousarray(rows), n, iparams, fparams, state,
           predictions, codes)
    return bytes(predictions), bytes(codes)


@pytest.mark.parametrize("name", CELLS)
@pytest.mark.parametrize("seed", [1, 2])
def test_kernel_chunks_equal_one_run(kernel_leg, int1_trace, name, seed):
    predictor, estimator, controller = _cell(name)
    cell = cell_inputs(predictor, estimator, controller, 1500)
    iparams, fparams = cell_params(*cell)
    rows = compute_planes(
        TraceArrays.from_trace(int1_trace), plane_geometry(predictor.config)
    ).data[1:]

    whole = power_on(iparams)
    whole_predictions, whole_codes = _run(rows, iparams, fparams, whole)

    chunked = power_on(iparams)
    predictions, codes = b"", b""
    for start, stop in _chunks(rows.shape[1], seed):
        batch_predictions, batch_codes = _run(
            rows[:, start:stop], iparams, fparams, chunked
        )
        predictions += batch_predictions
        codes += batch_codes

    assert predictions == whole_predictions
    assert codes == whole_codes
    assert chunked == whole
    assert whole[compiled.ST_TICK] == len(int1_trace)
    assert len(int1_trace) > predictor.config.u_reset_period
    if controller is not None:
        assert whole[compiled.ST_PROB_K] != iparams[compiled.IP_PROB_K]


@pytest.mark.parametrize("name", CELLS)
def test_cell_steps_equal_reference(kernel_leg, int1_trace, name):
    """A ResumableTageCell stepped in random batches reproduces the
    reference engine's per-branch stream (adaptive cells: the reference
    loop with the controller attached)."""
    predictor, estimator, controller = _cell(name)
    cell = ResumableTageCell(predictor, estimator, controller)
    predictions, codes = b"", b""
    for start, stop in _chunks(len(int1_trace), 3):
        batch_predictions, batch_codes = cell.step(
            int1_trace.pcs[start:stop], int1_trace.takens[start:stop]
        )
        predictions += batch_predictions
        codes += batch_codes

    reference_predictor, reference_estimator, reference_controller = _cell(name)
    if reference_controller is None:
        observed = observe_trace(int1_trace, reference_predictor,
                                 reference_estimator, backend="reference")
        expected_predictions = bytes(observed.predictions)
        expected_codes = bytes(observed.class_codes)
    else:
        expected_predictions, expected_codes = _adaptive_reference(
            int1_trace, reference_predictor, reference_estimator,
            reference_controller,
        )
    assert predictions == expected_predictions
    assert codes == expected_codes
    assert cell.observed == len(int1_trace)
    assert cell.mispredictions == sum(
        p != t for p, t in zip(predictions, int1_trace.takens)
    )


def _adaptive_reference(trace, predictor, estimator, controller):
    from repro.confidence.classes import confidence_level_of
    from repro.sim.observe import OBSERVATION_CLASS_CODES

    code_of = {c: i for i, c in enumerate(OBSERVATION_CLASS_CODES)}
    predictions, codes = bytearray(), bytearray()
    for pc, taken_byte in zip(trace.pcs, trace.takens):
        taken = taken_byte == 1
        prediction = predictor.predict(pc)
        observation = predictor.last_prediction
        prediction_class = estimator.classify(observation)
        estimator.observe(observation, taken)
        controller.observe(confidence_level_of(prediction_class),
                           prediction != taken)
        predictor.train(pc, taken)
        predictions.append(prediction)
        codes.append(code_of[prediction_class])
    return bytes(predictions), bytes(codes)


# -- the batch plane builder --------------------------------------------------

def _build(gparams, history, pcs, takens) -> list[list[int]]:
    """One batch through the pinned leg's builder, as row lists."""
    build = compiled.resolve_tage_planes_kernel()
    if build is None:
        return _build_planes(gparams, history, pcs, takens)
    n = len(pcs)
    n_rows = 2 + 2 * gparams[compiled.GP_N_TAGGED]
    out = array("q", bytes(8 * n_rows * n))
    build(n, gparams, history, array("Q", pcs), bytes(takens), out)
    return [out[r * n:(r + 1) * n].tolist() for r in range(n_rows)]


def _assert_batches_equal_closed_form(config, trace, seed):
    geometry = plane_geometry(config)
    expected = compute_planes(TraceArrays.from_trace(trace), geometry).data[1:]
    gparams = plane_params(geometry)
    history = history_power_on(gparams)
    pure_history = history_power_on(gparams)
    for start, stop in _chunks(len(trace), seed):
        pcs = trace.pcs[start:stop]
        takens = trace.takens[start:stop]
        rows = _build(gparams, history, pcs, takens)
        assert rows == expected[:, start:stop].tolist()
        assert rows == _build_planes(gparams, pure_history, pcs, takens)
        assert history == pure_history


@pytest.mark.parametrize("size", ["16K", "64K", "256K"])
def test_batch_planes_equal_compute_planes(kernel_leg, int1_trace, size):
    _assert_batches_equal_closed_form(TageConfig.preset(size), int1_trace, 5)


@settings(max_examples=25, deadline=None)
@given(
    n_tagged=st.integers(1, 9),
    log_bimodal=st.integers(1, 14),
    log_tagged=st.integers(1, 12),
    tag_bits=st.integers(2, 16),
    min_history=st.integers(1, 12),
    extra_history=st.integers(0, 400),
    path_history_bits=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
def test_batch_planes_on_random_geometries(
    n_tagged, log_bimodal, log_tagged, tag_bits, min_history,
    extra_history, path_history_bits, seed,
):
    config = TageConfig(
        name="random", n_tagged=n_tagged, log_bimodal=log_bimodal,
        log_tagged=log_tagged, tag_bits=tag_bits, min_history=min_history,
        max_history=min_history + extra_history,
        path_history_bits=path_history_bits,
    )
    spec = WorkloadSpec(name="planes", seed=seed, n_static=40, n_routines=8)
    trace = SyntheticWorkload(spec).generate(1200)
    for leg in KERNEL_LEGS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(compiled.PROVIDER_ENV, leg)
            _assert_batches_equal_closed_form(config, trace, seed)


def test_c_kernels_refuse_short_buffers(monkeypatch):
    monkeypatch.setenv(compiled.PROVIDER_ENV, "cext")
    if compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    kernel = compiled.resolve_tage_kernel()
    build = compiled.resolve_tage_planes_kernel()
    config = TageConfig.small()
    iparams, fparams = cell_params(config, 8, 7, 0, None, None)
    gparams = plane_params(plane_geometry(config))
    n = 10
    rows = array("q", bytes(8 * (2 + 2 * config.n_tagged) * n))
    with pytest.raises(ValueError, match="state"):
        kernel(rows, n, iparams, fparams, power_on(iparams)[:-1], None, None)
    with pytest.raises(ValueError, match="plane rows"):
        kernel(rows, n + 1, iparams, fparams, power_on(iparams), None, None)
    with pytest.raises(ValueError, match="output"):
        kernel(rows, n, iparams, fparams, power_on(iparams), bytearray(n - 1), None)
    with pytest.raises(ValueError, match="history"):
        build(n, gparams, history_power_on(gparams)[:-1], array("Q", [0] * n),
              bytes(n), rows)
    with pytest.raises(ValueError, match="takens"):
        build(n, gparams, history_power_on(gparams), array("Q", [0] * n),
              bytes(n - 1), rows)

    step = compiled.resolve_tage_step_kernel()

    def run_step(**short):
        buffers = dict(
            gparams=gparams, history=history_power_on(gparams),
            pcs=array("Q", [0] * n), takens=bytes(n), iparams=iparams,
            fparams=fparams, state=power_on(iparams),
            predictions=bytearray(n), classes=bytearray(n),
        )
        buffers.update(short)
        step(n, *buffers.values())

    run_step()
    for name, buffer in [
        ("history", history_power_on(gparams)[:-1]),
        ("pcs", array("Q", [0] * (n - 1))),
        ("takens", bytes(n - 1)),
        ("state", power_on(iparams)[:-1]),
        ("output", bytearray(n - 1)),
    ]:
        argument = "predictions" if name == "output" else name
        with pytest.raises(ValueError, match=name):
            run_step(**{argument: buffer})
    other, _ = cell_params(TageConfig.medium(), 8, 7, 0, None, None)
    with pytest.raises(ValueError, match="tagged components"):
        run_step(iparams=other, state=power_on(other))
