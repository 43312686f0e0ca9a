"""Differential check of the C twin of one-shot synthesis against the
pure :class:`~repro.traces.workload.SyntheticWorkload`.

:func:`~repro.traces.workload.synthesize` runs the ``trace-synth``
group of :mod:`repro.sim.fast.compiled` when the C build resolves: it
builds every kernel eagerly and walks the routines in C.  Over the
random specs of ``test_workload_oracle.py`` (single-category mixes,
one static branch, zero branches) its columns must be the pure
workload's, byte for byte.  The pinned digests in
``test_synthesis_digests.py`` run on both legs.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import example, given, settings

from repro.sim.fast import compiled
from repro.traces import suites
from repro.traces.sources import base
from repro.traces.suites import trace_spec
from repro.traces.workload import KernelMix, SyntheticWorkload, WorkloadSpec, synthesize
from tests.traces.test_workload_oracle import (
    CATEGORIES,
    _single_category_mix,
    lengths,
    specs,
)


@pytest.fixture
def cext(monkeypatch):
    """Require the C build for the test (skip without a compiler)."""
    monkeypatch.setenv(compiled.PROVIDER_ENV, "cext")
    if compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")


_ZERO_MIX = {name: 0.0 for name in CATEGORIES}


def _columns(trace) -> tuple:
    return trace.name, list(trace.pcs), bytes(trace.takens), list(trace.insts)


@settings(max_examples=150, deadline=None)
@given(spec=specs, n_branches=lengths)
@example(
    spec=WorkloadSpec(name="one", seed=9, n_static=1, n_routines=1,
                      mix=_single_category_mix("biased_noisy")),
    n_branches=40,
)
@example(
    spec=WorkloadSpec(name="one-loop", seed=5, n_static=1, n_routines=3,
                      mix=_single_category_mix("loop")),
    n_branches=100,
)
@example(
    spec=WorkloadSpec(name="nested", seed=3, n_static=40, n_routines=6,
                      mix=_single_category_mix("nested_loop")),
    n_branches=1_000,
)
@example(
    spec=WorkloadSpec(name="parity", seed=2**64 - 1, n_static=30, n_routines=4,
                      parity_depth=(40, 70), mix=_single_category_mix("parity")),
    n_branches=1_000,
)
@example(
    spec=WorkloadSpec(name="short-local", seed=3, n_static=30, n_routines=4,
                      pattern_len=(1, 1), mix=_single_category_mix("local_pattern")),
    n_branches=2_000,
)
@example(
    # 31-branch loop bursts shift history into bit 31, which a 32-deep
    # parity window reads.
    spec=WorkloadSpec(name="wide-burst", seed=8, n_static=40, n_routines=5,
                      loop_trips=(31, 31), parity_depth=(32, 32),
                      mix=KernelMix(**{**_ZERO_MIX, "loop": 1.0, "parity": 1.0})),
    n_branches=3_000,
)
@example(spec=WorkloadSpec(name="empty", seed=-7, n_static=20), n_branches=0)
def test_twin_matches_pure_workload(spec, n_branches):
    # The fixture cannot wrap a hypothesis test, so pin the leg here.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(compiled.PROVIDER_ENV, "cext")
        if compiled.active_provider() != "cext":
            pytest.skip("C kernel build unavailable")
        twin = synthesize(spec, n_branches)
    assert _columns(twin) == _columns(SyntheticWorkload(spec).generate(n_branches))


def test_suite_lookups_run_the_twin(cext, monkeypatch):
    """A CBP name's registered source (every CBP lookup's path)
    synthesizes through the twin: the pure workload is never
    constructed."""

    def refuse(spec):
        raise AssertionError("the pure workload ran")

    expected = _columns(SyntheticWorkload(trace_spec("INT-1")).generate(3_000))
    monkeypatch.setattr("repro.traces.workload.SyntheticWorkload", refuse)
    base._generate_cached.cache_clear()
    try:
        assert _columns(suites.cbp1_trace("INT-1", 3_000)) == expected
    finally:
        base._generate_cached.cache_clear()


def test_specs_outside_the_twin_run_pure(cext):
    """A pattern longer than 64 outcomes or a bias outside [0, 1] is not
    the twin's: the pure workload runs, with the same columns (or the
    same refusal when a branch executes)."""
    long_patterns = WorkloadSpec(name="long", seed=4, n_static=60,
                                 pattern_len=(60, 90),
                                 mix=_single_category_mix("pattern"))
    assert _columns(synthesize(long_patterns, 2_000)) == _columns(
        SyntheticWorkload(long_patterns).generate(2_000))
    bad_bias = WorkloadSpec(name="bias", seed=4, n_static=10,
                            strong_bias=(1.5, 2.0),
                            mix=_single_category_mix("biased_strong"))
    with pytest.raises(ValueError, match="p_taken"):
        synthesize(bad_bias, 100)


@pytest.mark.parametrize("leg", ("none", "cext"))
def test_synthesized_columns_are_packed(monkeypatch, leg):
    """Both legs hand :class:`Trace` buffers it copies without boxing:
    u64 pcs and one byte per instruction count."""
    monkeypatch.setenv(compiled.PROVIDER_ENV, leg)
    if leg == "cext" and compiled.active_provider() != "cext":
        pytest.skip("C kernel build unavailable")
    trace = synthesize(trace_spec("INT-1"), 1_000)
    assert isinstance(trace.pcs, array) and trace.pcs.typecode == "Q"
    assert isinstance(trace.insts, array) and trace.insts.typecode == "B"
    assert isinstance(trace.takens, bytearray)


def test_negative_length_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        synthesize(trace_spec("FP-1"), -1)


def test_library_cache_key_covers_the_compiler_flags(monkeypatch, tmp_path):
    """A changed compiler flag builds a new library instead of reusing
    the cached one, and every build turns off FMA contraction."""
    assert "-ffp-contract=off" in compiled._C_FLAGS
    monkeypatch.setenv(compiled.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(compiled, "_find_compiler", lambda: "cc")
    commands = []

    def fake_build(argv, **kwargs):
        commands.append(argv)
        open(argv[argv.index("-o") + 1], "wb").close()
        return type("Done", (), {"returncode": 0, "stderr": ""})()

    monkeypatch.setattr(compiled.subprocess, "run", fake_build)
    first = compiled._build_shared_library()
    assert compiled._build_shared_library() == first  # cached
    monkeypatch.setattr(compiled, "_C_FLAGS", compiled._C_FLAGS + ("-g",))
    second = compiled._build_shared_library()
    assert second != first
    assert len(commands) == 2 and "-g" in commands[1]
    assert all("-ffp-contract=off" in argv for argv in commands)
