"""Pinned per-branch streams of the reference engine.

Every reference entry point — :func:`simulate`, :func:`simulate_binary`,
:func:`observe_trace` on ``backend="reference"``, the serving layer's
:func:`offline_decisions`, a binary :class:`TenantSession` and
:func:`calibrate_simulation` — is pinned by a sha256 of its per-branch
(prediction, code) stream plus its aggregates.  Codes are §5 class
codes (indices into ``CLASS_ORDER``) for the multi-class estimator and
the high-confidence flag for binary ones; predictor-only cells pin the
prediction stream alone.  The streams are read off recording proxies
around the components, so they come from the entry point under test
and not from a second loop.

The per-branch step order itself — predict, classify/assess, observe,
optional §6.2 control, train — is pinned call by call on a short trace,
because the estimators here are storage-free or keep their own history,
so some reorderings (observe after train) would leave every stream
unchanged.

The digests were generated before the reference loops were folded into
one step function and must not move.  Regenerate (only for an
intentional semantic change) with::

    PYTHONPATH=src python tests/sim/test_reference_streams.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.calibration import calibrate_simulation
from repro.confidence.classes import CLASS_ORDER
from repro.confidence.estimator import TageConfidenceEstimator
from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.confidence.self_confidence import SelfConfidenceEstimator
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.predictors.ogehl import OgehlPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.serve.driver import offline_decisions
from repro.serve.state import SessionSpec, TenantSession
from repro.sim.engine import simulate, simulate_binary
from repro.sim.observe import observe_trace
from repro.sim.runner import build_predictor, get_trace

_CODE_OF_CLASS = {cls: code for code, cls in enumerate(CLASS_ORDER)}


class _Recorder:
    """Delegating proxy that logs calls to the named methods.

    ``events`` receives ``"<label>.<method>"`` for every logged call,
    and ``results[method]`` the values it returned, in call order.
    """

    def __init__(self, target, events: list, names: tuple[str, ...],
                 label: str = "") -> None:
        self._target = target
        self._events = events
        self._names = names
        self._label = label
        self.results: dict[str, list] = {name: [] for name in names}

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if name not in self._names:
            return value
        events = self._events
        results = self.results[name]
        event = f"{self._label}.{name}"

        def logged(*args, **kwargs):
            events.append(event)
            result = value(*args, **kwargs)
            results.append(result)
            return result
        return logged


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if not isinstance(part, bytes):
            part = json.dumps(part, sort_keys=True).encode()
        digest.update(part)
        digest.update(b"|")
    return digest.hexdigest()


def _result_aggregates(result) -> dict:
    aggregates = {
        "n_branches": result.n_branches,
        "n_instructions": result.n_instructions,
        "mispredictions": result.mispredictions,
        "storage_bits": result.storage_bits,
        "final_sat_prob_log2": result.final_sat_prob_log2,
    }
    if result.classes is not None:
        aggregates["classes"] = [
            [cls.value, result.classes.predictions(cls),
             result.classes.mispredictions(cls)]
            for cls in CLASS_ORDER
            if cls in result.classes.keys()
        ]
    return aggregates


def _confusion(metrics) -> list[int]:
    return [metrics.high_correct, metrics.high_incorrect,
            metrics.low_correct, metrics.low_incorrect]


def _stream_digest(predictions, codes, aggregates) -> str:
    return _sha(bytes(1 if p else 0 for p in predictions),
                bytes(codes) if codes is not None else b"-", aggregates)


# ---------------------------------------------------------------------------
# Cells.
# ---------------------------------------------------------------------------

def _tage16k():
    return build_predictor("16K")


def _tage16k_prob():
    return build_predictor("16K", automaton="probabilistic")


#: name -> (trace, n_branches, warmup, predictor factory, estimator
#: factory or None).  Multi-class cells use the TAGE observation
#: estimator; the rest are predictor-only or binary.
PLAIN_CELLS = {
    "bimodal": ("INT-1", 4000, 0, BimodalPredictor),
    "gshare": ("300.twolf", 4000, 0,
               lambda: GsharePredictor(log_entries=12, history_length=10)),
}

BINARY_CELLS = {
    "gshare_jrs_w500": ("INT-1", 4000, 500, GsharePredictor,
                        lambda predictor: JrsEstimator()),
    "bimodal_ejrs": ("FP-1", 4000, 500, BimodalPredictor,
                     lambda predictor: EnhancedJrsEstimator()),
    "local_jrs": ("SERV-1", 4000, 1000, LocalHistoryPredictor,
                  lambda predictor: JrsEstimator()),
    "perceptron_self": ("INT-1", 4000, 500, PerceptronPredictor,
                        SelfConfidenceEstimator),
    "ogehl_self": ("MM-1", 4000, 500, OgehlPredictor,
                   SelfConfidenceEstimator),
}

MULTI_CLASS_CELLS = {
    "tage16k_tage": ("INT-1", 4000, 1000, _tage16k, False),
    "tage16k_prob_tage_adaptive": ("INT-1", 12000, 1000, _tage16k_prob, True),
}

#: offline_decisions / TenantSession cells: name -> (predictor token,
#: estimator kind, adaptive, trace, n_branches).
SESSION_CELLS = {
    "gshare_jrs": ("gshare", "jrs", False, "INT-1", 4000),
    "perceptron_self": ("perceptron", "self", False, "INT-1", 4000),
    "tage16k_tage": ("tage-16K", "tage", False, "INT-1", 4000),
    "tage16k_prob_tage_adaptive": ("tage-16K-prob", "tage", True, "INT-1", 12000),
}


def _simulate_plain(name):
    trace_name, n, warmup, make_predictor = PLAIN_CELLS[name]
    trace = get_trace(trace_name, n)
    predictor = _Recorder(make_predictor(), [], ("predict",))
    result = simulate(trace, predictor, warmup_branches=warmup,
                      backend="reference")
    return _stream_digest(predictor.results["predict"], None,
                          _result_aggregates(result))


def _simulate_binary(name):
    trace_name, n, warmup, make_predictor, make_estimator = BINARY_CELLS[name]
    trace = get_trace(trace_name, n)
    real = make_predictor()
    predictor = _Recorder(real, [], ("predict",))
    estimator = _Recorder(make_estimator(real), [], ("assess",))
    metrics, result = simulate_binary(trace, predictor, estimator,
                                      warmup_branches=warmup,
                                      backend="reference")
    codes = [1 if high else 0 for high in estimator.results["assess"]]
    return _stream_digest(predictor.results["predict"], codes,
                          [_confusion(metrics), _result_aggregates(result)])


def _simulate_multi_class(name):
    trace_name, n, warmup, make_predictor, adaptive = MULTI_CLASS_CELLS[name]
    trace = get_trace(trace_name, n)
    real = make_predictor()
    predictor = _Recorder(real, [], ("predict",))
    estimator = _Recorder(TageConfidenceEstimator(real), [], ("classify",))
    controller = AdaptiveSaturationController(real) if adaptive else None
    result = simulate(trace, predictor, estimator, controller,
                      warmup_branches=warmup, backend="reference")
    codes = [_CODE_OF_CLASS[cls] for cls in estimator.results["classify"]]
    return _stream_digest(predictor.results["predict"], codes,
                          _result_aggregates(result))


def _observe_multi_class(name):
    trace_name, n, _, make_predictor, adaptive = MULTI_CLASS_CELLS[name]
    assert not adaptive, "observe_trace carries no controller"
    trace = get_trace(trace_name, n)
    predictor = make_predictor()
    stream = observe_trace(trace, predictor, TageConfidenceEstimator(predictor),
                           backend="reference")
    assert stream.mispredicted == [
        p != (t == 1) for p, t in zip(stream.predictions, trace.takens)
    ]
    return _stream_digest(stream.predictions, stream.class_codes,
                          stream.mispredictions)


def _session_spec(name, tenant="pin"):
    predictor, estimator, adaptive, _, _ = SESSION_CELLS[name]
    return SessionSpec(tenant=tenant, predictor=predictor,
                       estimator=estimator, adaptive=adaptive)


def _offline(name):
    *_, trace_name, n = SESSION_CELLS[name]
    stream = offline_decisions(_session_spec(name), get_trace(trace_name, n))
    return _stream_digest(stream.predictions, stream.codes, len(stream))


def _calibration():
    trace = get_trace("INT-1", 4000)
    predictor = _tage16k()
    tracker, report = calibrate_simulation(
        trace, predictor, TageConfidenceEstimator(predictor)
    )
    return _sha(
        [[b.lower, b.upper, b.count, b.mean_predicted, b.observed_rate]
         for b in report.bins()],
        report.total, report.brier_score(),
        [[cls.value, tracker.probability(cls), tracker.observations(cls)]
         for cls in CLASS_ORDER],
    )


def _digests() -> dict[str, str]:
    digests = {}
    for name in PLAIN_CELLS:
        digests[f"simulate/{name}"] = _simulate_plain(name)
    for name in BINARY_CELLS:
        digests[f"simulate_binary/{name}"] = _simulate_binary(name)
    for name in MULTI_CLASS_CELLS:
        digests[f"simulate/{name}"] = _simulate_multi_class(name)
    digests["observe_trace/tage16k_tage"] = _observe_multi_class("tage16k_tage")
    for name in SESSION_CELLS:
        digests[f"offline_decisions/{name}"] = _offline(name)
    digests["calibrate_simulation/tage16k"] = _calibration()
    return digests


PINNED = {
    "calibrate_simulation/tage16k": "e49924cf5076daead426cbe57b3085ffce0280453b1140c120888f064a572599",
    "observe_trace/tage16k_tage": "84810b9681bc8b93238f4c74ed43209adedd9db0cd9423ebba7bf6aad8c3355e",
    "offline_decisions/gshare_jrs": "a4e432acabbc6aab06904b357aa9eeae858bc2a80b079d8b60b5cab764ea6c6e",
    "offline_decisions/perceptron_self": "c45572668801b956cb5b56e41beeb49c2f870a8fe769c6ccd917d4df493df745",
    "offline_decisions/tage16k_prob_tage_adaptive": "9a0a118596fb5e895fcf52679c635fe4e10302f97700b8db38fea884aae7bc73",
    "offline_decisions/tage16k_tage": "42794aef1062dcc743051d44ed04fd2b4c9c2642222ec2a909966345de6d6a9f",
    "simulate/bimodal": "fccbc2fc560c6734100c3121a4afdfe121b562ccef442abdce63f34098d8c8f5",
    "simulate/gshare": "a78fa5b036890f0f0d3dd471caa46b9b5f9d38d5a072953145269da5cf6f82d1",
    "simulate/tage16k_prob_tage_adaptive": "606305a7a722693f50250ea532a1098e4569fbb5808bce959234fef20cd2bdf9",
    "simulate/tage16k_tage": "a310d973347ed4e18a7bab8cf4726f37b8d5efa9acbcd57fc255641ec53fe385",
    "simulate_binary/bimodal_ejrs": "4c629ff5e7f33b0b0737005e94bc7b83cdb576d67f7c27696b53c6569883452b",
    "simulate_binary/gshare_jrs_w500": "1f0f75eab7419e45f9842b3317c690b1ad564b21b142f2b9434dee8cbc54b6c5",
    "simulate_binary/local_jrs": "553147922819200d7b020aa0c56c4172a9827ece5dfdf7b2dcf9ae64a1df950d",
    "simulate_binary/ogehl_self": "292bf4d768dc724360936a7e770b3721164a324f0a96da50cbbc8ab05d617075",
    "simulate_binary/perceptron_self": "7dab675222d17a2f534ac95e0b0bc89ff3d52b5867b2d11ca86ab097ab8b5d6e",
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_reference_stream(key):
    kind, name = key.split("/")
    compute = {
        "simulate": lambda: (
            _simulate_plain(name) if name in PLAIN_CELLS
            else _simulate_multi_class(name)
        ),
        "simulate_binary": lambda: _simulate_binary(name),
        "observe_trace": lambda: _observe_multi_class(name),
        "offline_decisions": lambda: _offline(name),
        "calibrate_simulation": _calibration,
    }[kind]
    assert compute() == PINNED[key]


def test_binary_session_resumes_across_uneven_batches():
    """A binary tenant fed 1, 7, 256 records and then the rest replays
    the offline stream exactly, and its accounting matches."""
    *_, trace_name, n = SESSION_CELLS["gshare_jrs"]
    trace = get_trace(trace_name, n)
    session = TenantSession(_session_spec("gshare_jrs", tenant="uneven"))
    predictions, codes = bytearray(), bytearray()
    start = 0
    for size in (1, 7, 256, len(trace)):
        stop = min(start + size, len(trace))
        batch_predictions, batch_codes = session.observe_batch(
            trace.pcs[start:stop], trace.takens[start:stop]
        )
        predictions += batch_predictions
        codes += batch_codes
        start = stop
    offline = offline_decisions(_session_spec("gshare_jrs"), trace)
    assert list(predictions) == [1 if p else 0 for p in offline.predictions]
    assert list(codes) == list(offline.codes)
    mispredictions = sum(p != t for p, t in zip(predictions, trace.takens))
    assert session.stats() == {
        "tenant": "uneven", "observed": len(trace),
        "mispredictions": mispredictions,
    }
    assert _stream_digest(predictions, codes, len(predictions)) == PINNED[
        "offline_decisions/gshare_jrs"
    ]


# ---------------------------------------------------------------------------
# The step order, call by call.
# ---------------------------------------------------------------------------

STEP_BRANCHES = 64


def _step_trace():
    return get_trace("INT-1", STEP_BRANCHES)


def test_step_order_predictor_only():
    events: list[str] = []
    predictor = _Recorder(GsharePredictor(), events, ("predict", "train"), "p")
    simulate(_step_trace(), predictor, backend="reference")
    assert events == ["p.predict", "p.train"] * STEP_BRANCHES


def test_step_order_binary():
    events: list[str] = []
    real = GsharePredictor()
    predictor = _Recorder(real, events, ("predict", "train"), "p")
    estimator = _Recorder(JrsEstimator(), events, ("assess", "observe"), "e")
    simulate_binary(_step_trace(), predictor, estimator, backend="reference")
    assert events == [
        "p.predict", "e.assess", "e.observe", "p.train",
    ] * STEP_BRANCHES


@pytest.mark.parametrize("adaptive", [False, True])
def test_step_order_multi_class(adaptive):
    events: list[str] = []
    real = _tage16k_prob()
    predictor = _Recorder(real, events, ("predict", "train"), "p")
    estimator = _Recorder(TageConfidenceEstimator(real), events,
                          ("classify", "observe"), "e")
    controller = (
        _Recorder(AdaptiveSaturationController(real), events, ("observe",), "c")
        if adaptive else None
    )
    simulate(_step_trace(), predictor, estimator, controller,
             backend="reference")
    step = ["p.predict", "e.classify", "e.observe"]
    step += ["c.observe"] if adaptive else []
    assert events == (step + ["p.train"]) * STEP_BRANCHES


def test_step_order_observation_stream():
    events: list[str] = []
    real = _tage16k()
    predictor = _Recorder(real, events, ("predict", "train"), "p")
    estimator = _Recorder(TageConfidenceEstimator(real), events,
                          ("classify", "observe"), "e")
    observe_trace(_step_trace(), predictor, estimator, backend="reference")
    assert events == [
        "p.predict", "e.classify", "e.observe", "p.train",
    ] * STEP_BRANCHES


if __name__ == "__main__":
    for key, value in sorted(_digests().items()):
        print(f'    "{key}": "{value}",')
