"""Backend threading through the sweep layer.

The selector must flow spec → grid → job → engine, while staying *out*
of the cache identity: the equivalence suite guarantees backend-invariant
results, so a fast sweep re-running a cached reference sweep must be a
100% cache hit (and vice versa).
"""

from __future__ import annotations

import warnings

import pytest

from repro.sim.backends import DEFAULT_BACKEND, FastBackendFallbackWarning
from repro.sweep import (
    EstimatorSpec,
    ExperimentSpec,
    PredictorSpec,
    ResultCache,
    run_sweep,
)
from repro.sweep.executor import execute_job
from repro.sweep.grid import expand
from repro.sweep.spec import JobSpec


def _spec(backend: str = DEFAULT_BACKEND, **overrides) -> ExperimentSpec:
    options = dict(
        name="backend-test",
        predictors=(PredictorSpec.of("gshare"), PredictorSpec.of("bimodal")),
        estimators=(EstimatorSpec.of("jrs"), EstimatorSpec.of("ejrs")),
        traces=("INT-1", "MM-1"),
        n_branches=1_200,
        backend=backend,
    )
    options.update(overrides)
    return ExperimentSpec(**options)


def _job(backend: str = DEFAULT_BACKEND) -> JobSpec:
    return JobSpec(
        predictor=PredictorSpec.of("gshare"),
        estimator=EstimatorSpec.of("jrs"),
        trace="INT-1",
        n_branches=1_200,
        backend=backend,
    )


class TestSpecThreading:
    def test_default_backend(self):
        assert _spec().backend == "reference"
        assert _job().backend == "reference"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            _spec(backend="turbo")
        with pytest.raises(ValueError, match="unknown backend"):
            _job(backend="turbo")

    def test_expansion_propagates_backend(self):
        expansion = expand(_spec(backend="fast"))
        assert expansion.jobs
        assert all(job.backend == "fast" for job in expansion.jobs)

    def test_with_options_switches_backend(self):
        assert _spec().with_options(backend="fast").backend == "fast"

    def test_backend_excluded_from_hashes(self):
        """Backend choice must not split the cache keyspace."""
        assert _spec().spec_hash() == _spec(backend="fast").spec_hash()
        assert _job().spec_hash() == _job(backend="fast").spec_hash()
        assert "backend" not in _job().as_dict()
        assert "backend" not in _spec().as_dict()


class TestExecution:
    def test_execute_job_backends_agree(self):
        pytest.importorskip("numpy")
        reference = execute_job(_job())
        fast = execute_job(_job(backend="fast"))
        assert fast.result == reference.result
        assert fast.binary == reference.binary
        assert fast.estimator_bits == reference.estimator_bits

    def test_fast_sweep_served_by_reference_cache(self, tmp_path):
        pytest.importorskip("numpy")
        cache = ResultCache(tmp_path / "sweeps")
        cold = run_sweep(_spec(), cache=cache)
        assert cold.n_executed == cold.n_jobs

        warm = run_sweep(_spec(backend="fast"), cache=cache)
        assert warm.n_cached == warm.n_jobs
        assert warm.n_executed == 0
        assert warm.table.rows() == cold.table.rows()

    def test_fast_sweep_rows_equal_reference_rows(self):
        pytest.importorskip("numpy")
        reference = run_sweep(_spec())
        fast = run_sweep(_spec(backend="fast"))
        assert fast.table.rows() == reference.table.rows()

    def test_fast_tage_sweep_rows_equal_reference_rows(self):
        pytest.importorskip("numpy")
        spec_options = dict(
            predictors=(
                PredictorSpec.of("tage", size="16K"),
                PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
            ),
            estimators=(EstimatorSpec.of("tage"), EstimatorSpec.of("jrs")),
        )
        reference = run_sweep(_spec(**spec_options))
        with warnings.catch_warnings():
            warnings.simplefilter("error", FastBackendFallbackWarning)
            fast = run_sweep(_spec(backend="fast", **spec_options))
        assert fast.table.rows() == reference.table.rows()


class TestFallbackDedupe:
    """One FastBackendFallbackWarning per unsupported cell per sweep run.

    With the whole stock zoo vectorized (perceptron/O-GEHL
    self-confidence and the adaptive §6.2 controller included — see
    ``tests/sweep/test_fallback_hygiene.py`` for the zero-warning
    guarantees), the one unsupported cell still expressible through
    specs is a >62-bit history window.
    """

    def _mixed_spec(self, **overrides) -> ExperimentSpec:
        options = dict(
            name="fallback-test",
            predictors=(
                PredictorSpec.of("tage", size="16K"),
                PredictorSpec.of("gshare", history_length=70),
            ),
            estimators=(EstimatorSpec.of("tage"), EstimatorSpec.of("jrs")),
            traces=("INT-1", "MM-1", "FP-1"),
            n_branches=1_000,
            backend="fast",
        )
        options.update(overrides)
        return ExperimentSpec(**options)

    def test_one_warning_per_unsupported_cell(self):
        pytest.importorskip("numpy")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sweep(self._mixed_spec(), workers=1)
        fallbacks = [
            w for w in caught if issubclass(w.category, FastBackendFallbackWarning)
        ]
        # One unsupported cell (oversized gshare × jrs) spanning three
        # traces must produce exactly one warning, not three.
        assert len(fallbacks) == 1
        assert "gshare" in str(fallbacks[0].message)
        assert "3 job(s)" in str(fallbacks[0].message)

    def test_downgraded_jobs_match_reference_results(self):
        pytest.importorskip("numpy")
        reference = run_sweep(self._mixed_spec(backend="reference"), workers=1)
        with pytest.warns(FastBackendFallbackWarning):
            fast = run_sweep(self._mixed_spec(), workers=1)
        assert fast.table.rows() == reference.table.rows()

    def test_adaptive_fast_sweep_matches_reference_without_warning(self):
        pytest.importorskip("numpy")
        spec = self._mixed_spec(
            predictors=(
                PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
            ),
            estimators=(EstimatorSpec.of("tage"),),
            adaptive=True,
        )
        reference = run_sweep(spec.with_options(backend="reference"), workers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FastBackendFallbackWarning)
            fast = run_sweep(spec, workers=1)
        assert fast.table.rows() == reference.table.rows()


class TestInMemoryPlanes:
    """Fast TAGE planes are computed in memory, once per trace x plane
    geometry, and never stored next to the result cache."""

    def _tage_spec(self, backend="fast") -> ExperimentSpec:
        return ExperimentSpec(
            name="planes-test",
            predictors=(
                PredictorSpec.of("tage", size="16K"),
                PredictorSpec.of("tage", size="16K", automaton="probabilistic"),
            ),
            estimators=(EstimatorSpec.of("tage"), EstimatorSpec.of("jrs")),
            traces=("INT-1", "MM-1"),
            n_branches=1_000,
            backend=backend,
        )

    def test_sweep_cli_leaves_no_plane_cache(self, tmp_path, capsys):
        pytest.importorskip("numpy")
        from repro.cli import main

        cache_dir = tmp_path / "sweeps"
        assert main([
            "sweep", "--branches", "1000", "--workers", "1",
            "--backend", "fast", "--predictors", "tage-16K", "tage-16K-prob",
            "--estimators", "tage", "jrs", "--traces", "INT-1", "MM-1",
            "--cache-dir", str(cache_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "(0 cached, 8 executed)" in out
        assert "lockstep: fused 8 job(s) into 2 batch(es)" in out
        assert "materializations" not in out
        assert len(ResultCache(cache_dir)) == 8
        assert not (cache_dir / "planes").exists()

    @pytest.mark.parametrize("provider", ["none", "cext"])
    def test_units_compute_planes_once_per_trace_geometry(self, provider,
                                                          monkeypatch):
        pytest.importorskip("numpy")
        from repro.sim.fast import compiled, planes, tage

        monkeypatch.setenv(compiled.PROVIDER_ENV, provider)
        if provider == "cext" and compiled.active_provider() != "cext":
            pytest.skip(f"C kernel build unavailable "
                        f"({compiled.provider_unavailable_reason()})")
        # Each chunk build is filed under the trace whose stream asked
        # for it: NumPy's windowed builder on the pure leg, the C
        # carried-history builder on the C leg.
        streaming = []
        built = {"numpy": [], "c": []}
        plane_chunks = tage._plane_chunks
        compute_planes = planes.compute_planes
        resolve_builder = compiled.resolve_tage_planes_kernel

        def tracking(arrays, *args):
            streaming[:] = [arrays.name]
            yield from plane_chunks(arrays, *args)

        def counting(arrays, geometry):
            built["numpy"].append(streaming[0])
            return compute_planes(arrays, geometry)

        def counting_builder():
            build = resolve_builder()
            if build is None:
                return None

            def counted(*args):
                built["c"].append(streaming[0])
                return build(*args)
            return counted

        monkeypatch.setattr(tage, "_plane_chunks", tracking)
        monkeypatch.setattr(planes, "compute_planes", counting)
        monkeypatch.setattr(compiled, "resolve_tage_planes_kernel", counting_builder)
        monkeypatch.setattr(tage, "PLANE_CHUNK", 400)
        fused = run_sweep(self._tage_spec(), workers=1)
        # Both automata under both estimators stream one plane set per
        # trace: three 400-branch chunk builds per unit for eight jobs,
        # not one per member.
        assert fused.n_executed == 8
        ran, idle = ("numpy", "c") if provider == "none" else ("c", "numpy")
        assert sorted(built[ran]) == ["INT-1"] * 3 + ["MM-1"] * 3
        assert built[idle] == []
        reference = run_sweep(self._tage_spec(backend="reference"), workers=1)
        assert fused.table.rows() == reference.table.rows()

    def test_reference_sweep_touches_no_planes(self, tmp_path):
        cache = ResultCache(tmp_path / "sweeps")
        run_sweep(self._tage_spec(backend="reference"), workers=1, cache=cache)
        assert not (cache.root / "planes").exists()
