"""Trace materialization determinism.

The sweep cache keys results by spec hash and regenerates traces inside
worker processes; the fast backend pre-materializes outcome arrays from
the same generators.  Both are only sound if a ``WorkloadSpec`` + seed
(or a registered trace name) materializes *identical* columns every
time — within a process, across fresh generator instances, and across
independent interpreter processes.
"""

from __future__ import annotations

import hashlib
import multiprocessing

import pytest

from repro.sim.runner import get_trace
from repro.traces.suites import trace_spec
from repro.traces.workload import SyntheticWorkload, WorkloadSpec


def _columns_digest(trace) -> str:
    payload = repr((trace.name, list(trace.pcs), list(trace.takens), list(trace.insts)))
    return hashlib.sha256(payload.encode()).hexdigest()


def _digest_in_subprocess(name: str, n_branches: int) -> str:
    """Picklable worker: regenerate a registered trace and digest it."""
    return _columns_digest(get_trace(name, n_branches))


def _spec_digest_in_subprocess(spec: WorkloadSpec, n_branches: int) -> str:
    return _columns_digest(SyntheticWorkload(spec).generate(n_branches))


def _many_digests_in_subprocess(names: tuple[str, ...], n_branches: int) -> dict:
    """One spawn, every registered source: import-time registration must
    reproduce each stream bit-identically in a fresh interpreter."""
    return {name: _columns_digest(get_trace(name, n_branches)) for name in names}


class TestInProcessDeterminism:
    def test_fresh_workloads_from_same_spec_are_identical(self):
        spec = WorkloadSpec(name="det", seed=99, n_static=120, n_routines=16)
        first = SyntheticWorkload(spec).generate(3_000)
        second = SyntheticWorkload(spec).generate(3_000)
        assert first.pcs == second.pcs
        assert first.takens == second.takens
        assert first.insts == second.insts

    def test_replay_after_reset_is_identical(self):
        spec = WorkloadSpec(name="det", seed=7, n_static=80, n_routines=12)
        workload = SyntheticWorkload(spec)
        first = workload.generate(2_000)
        workload.reset()
        second = workload.generate(2_000)
        assert first.takens == second.takens
        assert first.pcs == second.pcs

    def test_seed_actually_matters(self):
        base = WorkloadSpec(name="det", seed=1, n_static=120, n_routines=16)
        other = WorkloadSpec(name="det", seed=2, n_static=120, n_routines=16)
        assert (
            SyntheticWorkload(base).generate(2_000).takens
            != SyntheticWorkload(other).generate(2_000).takens
        )

    def test_prefix_stability(self):
        """A longer materialization starts with the shorter one — the
        property that lets cached traces of different lengths coexist."""
        spec = trace_spec("INT-1")
        long = SyntheticWorkload(spec).generate(4_000)
        short = SyntheticWorkload(spec).generate(1_000)
        assert long.pcs[:1_000] == short.pcs
        assert long.takens[:1_000] == short.takens


class TestCrossProcessDeterminism:
    """Same spec + seed must materialize identically in a *fresh
    interpreter* — no reliance on in-process memoization, hash
    randomization or import order (guards the multiprocessing sweep
    executor and the fast backend's pre-materialization)."""

    @pytest.mark.parametrize("name", ["INT-1", "300.twolf"])
    def test_registered_trace_matches_subprocess(self, name):
        n_branches = 2_500
        local = _columns_digest(get_trace(name, n_branches))
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            remote = pool.apply(_digest_in_subprocess, (name, n_branches))
        assert remote == local

    def test_custom_spec_matches_subprocess(self):
        spec = WorkloadSpec(name="xproc", seed=4242, n_static=150, n_routines=20)
        local = _columns_digest(SyntheticWorkload(spec).generate(2_000))
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            remote = pool.apply(_spec_digest_in_subprocess, (spec, 2_000))
        assert remote == local


class TestTraceSourceDeterminism:
    """The same gate, extended over every registered ``zoo.*`` source —
    including the adversarial ones whose parameters come from an
    embedded simulation search (the searched period must be a pure
    function of the source spec, or spawn workers would disagree)."""

    def test_every_zoo_source_matches_subprocess(self):
        from repro.traces.sources import ZOO_SOURCE_NAMES

        n_branches = 1_500
        local = {
            name: _columns_digest(get_trace(name, n_branches))
            for name in ZOO_SOURCE_NAMES
        }
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            remote = pool.apply(
                _many_digests_in_subprocess, (ZOO_SOURCE_NAMES, n_branches)
            )
        assert remote == local

    def test_zoo_streams_are_chunk_size_invariant(self):
        from repro.traces.sources import ZOO_SOURCE_NAMES, get_source
        from repro.traces.types import Trace

        for name in ZOO_SOURCE_NAMES:
            source = get_source(name)
            reference = _columns_digest(source.generate(700))
            for chunk_size in (1, 13, 256, 4_096):
                records = [
                    record
                    for chunk in source.iter_chunks(700, chunk_size)
                    for record in chunk.records()
                ]
                stitched = Trace.from_records(name, records)
                assert _columns_digest(stitched) == reference, (name, chunk_size)

    def test_fresh_source_instances_are_identical(self):
        from repro.traces.sources import get_source

        source = get_source("zoo.markov")
        rebuilt = type(source)(**{
            field: getattr(source, field)
            for field in source.__dataclass_fields__
        })
        assert rebuilt is not source
        assert _columns_digest(rebuilt.generate(1_000)) == _columns_digest(
            source.generate(1_000)
        )


class TestFastBackendMaterialization:
    @pytest.mark.parametrize("name", ["INT-1", "zoo.markov", "zoo.tag-storm"])
    def test_trace_arrays_deterministic(self, name):
        np = pytest.importorskip("numpy")
        from repro.sim.fast import TraceArrays

        trace = get_trace(name, 2_000)
        first = TraceArrays.from_trace(trace)
        second = TraceArrays.from_trace(trace)
        assert np.array_equal(first.pcs, second.pcs)
        assert np.array_equal(first.takens, second.takens)
        assert list(first.pcs) == list(trace.pcs)
        assert list(first.takens) == list(trace.takens)
