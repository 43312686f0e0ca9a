"""Property-test harness gating every registered trace source.

Every source in the registry — the replay wrapper, the parameterized
generators and the adversarial zoo — must satisfy the ``TraceSource``
contract: exact lengths, prefix-stable streams, chunk-size-invariant
chunking, canonical JSON spec dicts and stable content ids.  On top of
the generic gate, each adversarial source must *demonstrably* break its
target estimator: confidence inversion must collapse JRS/EJRS
high-confidence precision versus a synthetic baseline, the tag-aliasing
storm must hurt TAGE specifically, and the XOR kernel must defeat the
perceptron while table predictors learn it.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.confidence.jrs import EnhancedJrsEstimator, JrsEstimator
from repro.predictors.gshare import GsharePredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.sim.engine import simulate, simulate_binary
from repro.sim.runner import build_predictor, get_trace
from repro.traces.io import write_trace
from repro.traces.names import CBP1_TRACE_NAMES, CBP2_TRACE_NAMES
from repro.traces.sources import (
    ADVERSARIAL_SOURCE_NAMES,
    FILE_PREFIX,
    ZOO_SOURCE_NAMES,
    MissingTraceFileError,
    ZOO_SOURCES,
    ConfidenceInversionSource,
    InterferenceSource,
    LoopNestSource,
    MarkovChainSource,
    PhaseChangeSource,
    default_trace_length,
    get_source,
    is_source_name,
    register_source,
    require_trace_file,
    resolve_trace,
    source_names,
)
from repro.traces.sources import base as base_module
from repro.traces.sources.adversarial import (
    _probe_backend,
    _probe_pvp,
    _searched_period,
)
from repro.traces.suites import cbp1_suite, cbp1_trace, cbp2_trace
from repro.traces.workload import SyntheticWorkload, WorkloadSpec


@pytest.fixture
def scratch_registry(monkeypatch):
    """Run a test against a throwaway copy of the global registry."""
    monkeypatch.setattr(base_module, "_REGISTRY", dict(base_module._REGISTRY))


class TestRegistry:
    def test_zoo_registered_in_order(self):
        names = source_names()
        assert tuple(n for n in names if n in ZOO_SOURCE_NAMES) == ZOO_SOURCE_NAMES
        assert set(ADVERSARIAL_SOURCE_NAMES) <= set(ZOO_SOURCE_NAMES)

    def test_is_source_name(self):
        assert is_source_name("zoo.markov")
        assert is_source_name("file:/nowhere/x.rtrc")
        assert is_source_name("INT-1")
        assert not is_source_name("nope")

    def test_unknown_source_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown trace name 'nope'"):
            get_source("nope")

    def test_duplicate_rejected_unless_replace(self, scratch_registry):
        source = MarkovChainSource(label="test.dup", seed=1)
        register_source(source)
        with pytest.raises(ValueError, match="already registered"):
            register_source(MarkovChainSource(label="test.dup", seed=2))
        replacement = MarkovChainSource(label="test.dup", seed=2)
        assert register_source(replacement, replace=True) is replacement
        assert get_source("test.dup").seed == 2

    @pytest.mark.parametrize("bad", ["", " ", "two words", "tab\tname", " lead"])
    def test_invalid_names_rejected(self, scratch_registry, bad):
        with pytest.raises(ValueError, match="invalid source name"):
            register_source(MarkovChainSource(label=bad, seed=1))

    def test_file_prefix_shadow_rejected(self, scratch_registry):
        with pytest.raises(ValueError, match="replay prefix"):
            register_source(MarkovChainSource(label="file:sneaky", seed=1))

    @pytest.mark.parametrize("shadow", ["INT-1", "300.twolf"])
    @pytest.mark.parametrize("replace", [False, True])
    def test_cbp_shadow_rejected(self, scratch_registry, shadow, replace):
        with pytest.raises(ValueError, match="shadows a built-in suite trace"):
            register_source(MarkovChainSource(label=shadow, seed=1),
                            replace=replace)

    def test_cbp_names_listed_first_then_the_zoo(self):
        names = source_names()
        assert names[:47] == CBP1_TRACE_NAMES + CBP2_TRACE_NAMES + ZOO_SOURCE_NAMES
        assert get_source("INT-1").spec_dict() == {"kind": "cbp1", "label": "INT-1"}
        assert get_source("300.twolf").spec_dict()["kind"] == "cbp2"

    def test_one_lookup(self):
        """Every public trace lookup is the registry's one function."""
        import repro.api
        import repro.sim.runner
        import repro.traces

        assert repro.traces.resolve_trace is repro.api.resolve_trace
        assert repro.api.resolve_trace is repro.sim.runner.get_trace
        assert repro.traces.resolve_trace("INT-1", 1000) is repro.api.resolve_trace(
            "INT-1", 1000)
        assert cbp1_trace("INT-1", 1000) is resolve_trace("INT-1", 1000)

    def test_suite_and_zoo_names_share_one_memo(self):
        base_module._generate_cached.cache_clear()
        resolve_trace("FP-1", 300)
        resolve_trace("zoo.markov", 300)
        resolve_trace("FP-1", 300)
        info = base_module._generate_cached.cache_info()
        assert (info.currsize, info.hits, info.maxsize) == (2, 1, 128)

    @pytest.mark.parametrize("name", ["INT-1", "zoo.markov"])
    def test_only_none_selects_the_default_length(self, monkeypatch, name):
        assert len(resolve_trace(name, 0)) == 0
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        assert default_trace_length() == 500
        assert len(resolve_trace(name)) == 500
        assert len(resolve_trace(name, None)) == 500

    def test_suite_lookups_keep_an_explicit_zero(self):
        assert len(cbp1_trace("INT-1", 0)) == 0
        assert len(cbp2_trace("164.gzip", 0)) == 0
        assert list(cbp1_suite(0, names=("FP-1",))[0].pcs) == []

    def test_get_trace_resolves_sources_and_still_rejects_unknown(self):
        trace = get_trace("zoo.markov", 64)
        assert trace.name == "zoo.markov"
        assert len(trace) == 64
        with pytest.raises(KeyError, match="unknown trace name"):
            get_trace("zoo.not-a-thing", 64)


@pytest.mark.parametrize(
    "source", ZOO_SOURCES, ids=[source.name for source in ZOO_SOURCES]
)
class TestSourceContract:
    """The generic gate every registered source must pass."""

    def test_exact_length_and_name(self, source):
        trace = source.generate(257)
        assert len(trace) == 257
        assert trace.name == source.name
        assert all(inst >= 1 for inst in trace.insts)
        assert list(source.generate(0).pcs) == []

    def test_columns_are_packed(self, source):
        trace = source.generate(300)
        assert trace.pcs.typecode == "Q"
        assert trace.insts.typecode == "B"
        assert isinstance(trace.takens, bytearray)

    def test_negative_length_rejected(self, source):
        with pytest.raises(ValueError, match="non-negative"):
            source.generate(-1)

    def test_prefix_stability(self, source):
        long = list(source.records(400))
        short = list(source.records(150))
        assert long[:150] == short

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_chunking_is_size_invariant(self, source, chunk_size):
        chunks = list(source.iter_chunks(200, chunk_size))
        assert all(len(chunk) <= chunk_size for chunk in chunks)
        stitched = [record for chunk in chunks for record in chunk.records()]
        assert stitched == list(source.records(200))

    def test_spec_dict_is_canonical_json(self, source):
        spec = source.spec_dict()
        assert json.loads(json.dumps(spec, sort_keys=True)) == spec
        assert spec["label"] == source.name if "label" in spec else True

    def test_source_id_stable_and_distinct(self, source):
        assert source.source_id() == source.source_id()
        assert len(source.source_id()) == 12
        others = {s.source_id() for s in ZOO_SOURCES if s.name != source.name}
        assert source.source_id() not in others


class TestFileReplay:
    def test_replay_is_bit_identical_to_origin(self, tmp_path):
        origin = get_source("zoo.markov").generate(500)
        path = tmp_path / "markov.rtrc.gz"
        write_trace(origin, path)
        replay = get_source(f"{FILE_PREFIX}{path}")
        loaded = replay.generate(500)
        assert loaded.pcs == origin.pcs
        assert list(loaded.takens) == list(origin.takens)
        assert loaded.insts == origin.insts

    def test_replay_truncates_and_replays_short_files_in_full(self, tmp_path):
        origin = get_source("zoo.loopnest").generate(300)
        path = tmp_path / "ln.rtrc"
        write_trace(origin, path)
        source = get_source(f"{FILE_PREFIX}{path}")
        assert len(source.generate(120)) == 120       # truncation
        assert len(source.generate(5_000)) == 300     # short file: full replay
        assert source.spec_dict()["kind"] == "file-replay"

    def test_replay_resolves_through_get_trace(self, tmp_path):
        origin = get_source("zoo.markov").generate(200)
        path = tmp_path / "m.rtrc"
        write_trace(origin, path)
        trace = get_trace(f"{FILE_PREFIX}{path}", 200)
        assert trace.pcs == origin.pcs

    def test_missing_file_is_a_typed_refusal(self, tmp_path):
        # Not an OSError: the sweep broker would retry that as transient.
        name = f"{FILE_PREFIX}{tmp_path / 'absent.rtrc'}"
        with pytest.raises(MissingTraceFileError, match="absent.rtrc' not found"):
            require_trace_file(name)
        with pytest.raises(MissingTraceFileError):
            get_trace(name, 100)
        with pytest.raises(MissingTraceFileError):
            list(get_source(name).records(10))
        assert not issubclass(MissingTraceFileError, OSError)
        require_trace_file("INT-1")  # other names pass

    def test_missing_file_sweep_job_quarantines_without_retry(self, tmp_path):
        from repro.sweep import EstimatorSpec, ExperimentSpec, PredictorSpec, run_sweep

        run = run_sweep(ExperimentSpec(
            name="missing",
            predictors=(PredictorSpec.of("gshare"),),
            estimators=(EstimatorSpec.of("jrs"),),
            traces=(f"{FILE_PREFIX}{tmp_path / 'absent.rtrc'}",),
            n_branches=100,
        ))
        assert run.n_retries == 0
        (entry,) = run.quarantined
        assert entry.kind == "deterministic" and entry.attempts == 1
        assert "MissingTraceFileError" in entry.error


class TestResolveTraceCache:
    """The resolve_trace memo must never serve stale data.

    Two historic staleness bugs, pinned: a ``file:`` replay memoized on
    ``(name, n_branches)`` kept serving the old file contents after the
    file changed; and ``register_source(..., replace=True)`` kept
    resolving through the replaced source.
    """

    def test_file_replay_sees_rewritten_file(self, tmp_path):
        first = get_source("zoo.markov").generate(200)
        second = get_source("zoo.loopnest").generate(200)
        assert first.pcs != second.pcs
        path = tmp_path / "swap.rtrc"
        write_trace(first, path)
        name = f"{FILE_PREFIX}{path}"
        assert resolve_trace(name, 200).pcs == first.pcs
        write_trace(second, path)
        assert resolve_trace(name, 200).pcs == second.pcs

    def test_file_replay_still_memoizes_unchanged_file(self, tmp_path):
        origin = get_source("zoo.markov").generate(150)
        path = tmp_path / "stable.rtrc"
        write_trace(origin, path)
        name = f"{FILE_PREFIX}{path}"
        assert resolve_trace(name, 150) is resolve_trace(name, 150)

    def test_registry_replacement_clears_the_memo(self, scratch_registry):
        register_source(MarkovChainSource(label="test.swap", seed=1))
        before = resolve_trace("test.swap", 300)
        register_source(MarkovChainSource(label="test.swap", seed=2), replace=True)
        after = resolve_trace("test.swap", 300)
        assert after.pcs != before.pcs
        assert after.pcs == MarkovChainSource(label="x", seed=2).generate(300).pcs


class TestGeneratorBehaviours:
    def test_interference_folds_pcs_into_shared_window(self):
        source = get_source("zoo.interference")
        trace = source.generate(2_000)
        base, span = source.pc_window_base, 1 << source.pc_window_bits
        assert all(base <= pc < base + span for pc in trace.pcs)
        assert all(pc % 4 == 0 for pc in trace.pcs)
        # Both processes are really present: the fold keeps many distinct PCs.
        assert len(set(trace.pcs)) > 40

    def test_interference_stops_when_both_substreams_dry(self, tmp_path):
        short = get_source("zoo.markov").generate(50)
        path = tmp_path / "short.rtrc"
        write_trace(short, path)
        replay = get_source(f"{FILE_PREFIX}{path}")
        source = InterferenceSource(
            label="test.dry", primary=replay, secondary=replay, quantum=16
        )
        assert len(source.generate(10_000)) <= 100  # 2 x 50, never hangs

    def test_phase_change_alternates_and_resumes_segments(self):
        spec_a = WorkloadSpec(name="pc/a", seed=11, n_static=60, n_routines=8)
        spec_b = WorkloadSpec(name="pc/b", seed=22, n_static=60, n_routines=8)
        source = PhaseChangeSource(
            label="test.phase", segments=(spec_a, spec_b), phase_length=300
        )
        stream = list(source.records(1_000))
        workload_a = SyntheticWorkload(spec_a)
        first_visit = list(workload_a.generate(300).records())
        second_visit = list(workload_a.generate(300).records())
        workload_b = SyntheticWorkload(spec_b)
        phase_b = list(workload_b.generate(300).records())
        assert stream[:300] == first_visit
        assert stream[300:600] == phase_b
        # The third phase *resumes* segment A where it left off.
        assert stream[600:900] == second_visit
        assert stream[600:900] != first_visit

    def test_markov_bias_ranges_are_respected(self):
        sticky = MarkovChainSource(
            label="test.sticky", seed=3,
            stay_taken=(0.995, 0.999), stay_not_taken=(0.995, 0.999),
        )
        trace = sticky.generate(4_000)
        last: dict[int, bool] = {}
        flips = 0
        for pc, taken in zip(trace.pcs, trace.takens):
            if pc in last and last[pc] != taken:
                flips += 1
            last[pc] = bool(taken)
        # Near-absorbing chains: each branch flips ~0.3% of executions.
        assert flips < 100

    def test_loop_nest_inner_backedge_pattern(self):
        source = LoopNestSource(
            label="test.nest", seed=5, n_nests=1,
            outer_trips=(2, 2), inner_trips=(4, 4),
        )
        records = list(source.records(12))
        # guard, inner x4 (T T T N), outer-backedge, then the nest repeats.
        inner_pc = records[1].pc
        inner = [record.taken for record in records if record.pc == inner_pc]
        assert inner[:4] == [True, True, True, False]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MarkovChainSource(label="x", seed=1, n_static=0),
            lambda: MarkovChainSource(label="x", seed=1, stay_taken=(0.9, 0.2)),
            lambda: LoopNestSource(label="x", seed=1, inner_trips=(0, 4)),
            lambda: PhaseChangeSource(label="x", segments=()),
            lambda: ConfidenceInversionSource(label="x", seed=1, candidate_periods=()),
            lambda: ConfidenceInversionSource(label="x", seed=1, probe_branches=8),
        ],
    )
    def test_invalid_parameters_rejected(self, build):
        with pytest.raises(ValueError):
            build()


# ---------------------------------------------------------------------------
# Adversarial sources: each must break its target, measurably.
# ---------------------------------------------------------------------------


def _misrate(trace_name: str, make_predictor, n_branches: int = 4_000) -> float:
    result = simulate(get_trace(trace_name, n_branches), make_predictor())
    return result.mispredictions / result.n_branches


def _high_conf_precision(trace_name: str, estimator_cls) -> float:
    """PVP of gshare + a JRS-family estimator on a trace (6k branches)."""
    confusion, _ = simulate_binary(
        get_trace(trace_name, 6_000),
        GsharePredictor(),
        estimator_cls(),
        warmup_branches=1_500,
    )
    high = confusion.high_correct + confusion.high_incorrect
    assert high > 0, f"no high-confidence assessments on {trace_name}"
    return confusion.high_correct / high


class TestAdversarialDegradation:
    def test_inversion_period_comes_from_the_search(self):
        source = get_source("zoo.jrs-inversion")
        assert source.period in source.candidate_periods
        assert source.period == source.period  # memoized, stable

    def test_period_search_engines_agree(self):
        """The search runs on the fast backend when it takes the cell;
        the two engines give the same PVP for every candidate."""
        pytest.importorskip("numpy")
        source = get_source("zoo.jrs-inversion")
        assert _probe_backend() == "fast"
        for period in source.candidate_periods:
            assert (_probe_pvp(source, period, "fast")
                    == _probe_pvp(source, period, "reference")), period

    def test_period_search_without_the_fast_backend(self, monkeypatch):
        """An install without NumPy searches on the reference engine,
        silently, and finds the same period."""
        from repro.sim import backends

        def unavailable():
            raise backends.FastBackendUnsupported("NumPy is unavailable")

        source = get_source("zoo.jrs-inversion")
        expected = source.period
        monkeypatch.setattr(backends, "load_fast_engine", unavailable)
        _searched_period.cache_clear()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _probe_backend() == "reference"
                assert _searched_period(source) == expected
        finally:
            _searched_period.cache_clear()

    @pytest.mark.parametrize("estimator_cls", [JrsEstimator, EnhancedJrsEstimator])
    def test_confidence_inversion_degrades_jrs_family_pvp(self, estimator_cls):
        """The acceptance gate: high-confidence precision on the
        adversarial stream collapses versus the synthetic baseline
        (measured ~0.98 -> ~0.82 for JRS, ~0.98 -> ~0.85 for EJRS)."""
        baseline = _high_conf_precision("INT-1", estimator_cls)
        adversarial = _high_conf_precision("zoo.jrs-inversion", estimator_cls)
        assert baseline > 0.9
        assert adversarial < baseline - 0.05

    def test_tag_storm_hurts_tage_specifically(self):
        """On the aliasing storm TAGE-16K does *worse* than history-less
        gshare (tagged allocation churn); on a benign zoo trace the
        ordering is the usual one."""
        storm_tage = _misrate("zoo.tag-storm", lambda: build_predictor("16K"))
        storm_gshare = _misrate("zoo.tag-storm", GsharePredictor)
        assert storm_tage > storm_gshare * 1.3
        benign_tage = _misrate("zoo.markov", lambda: build_predictor("16K"))
        benign_gshare = _misrate("zoo.markov", GsharePredictor)
        assert benign_tage < benign_gshare * 0.7

    def test_xor_kernel_defeats_perceptron_but_not_tables(self):
        """Linearly-inseparable outcomes: the perceptron stays far above
        the table predictors, which learn the XOR via pattern history."""
        perceptron = _misrate("zoo.xor", PerceptronPredictor)
        gshare = _misrate("zoo.xor", GsharePredictor)
        assert perceptron > gshare * 1.5
        assert gshare < 0.25  # the tables really do learn it
