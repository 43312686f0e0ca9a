"""Differential check of the lazy, batch-drawing workload against the
eager, method-call oracle (:mod:`tests.traces.oracle_workload`).

``SyntheticWorkload`` skips each static branch's kernel draws at
construction and builds the kernel from the recorded SplitMix64 counter
when the branch first executes.  Over random specs — single-category
mixes, degenerate lengths, resumed and reset runs — it must give the
oracle's columns and, once every kernel is forced, the oracle's kernels.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.traces.kernels import (
    BiasedKernel,
    HistoryFunctionKernel,
    HistoryParityKernel,
    LocalPatternKernel,
    LoopKernel,
    NestedLoopKernel,
    PatternKernel,
)
from repro.traces.sources import get_source
from repro.traces.workload import KernelMix, SyntheticWorkload, WorkloadSpec
from tests.traces.oracle_workload import OracleWorkload

CATEGORIES = tuple(name for name, _ in KernelMix().as_items())

#: The constructor parameters of every kernel type.
PUBLIC_PARAMETERS = {
    BiasedKernel: ("p_taken",),
    LoopKernel: ("trip_count",),
    PatternKernel: ("pattern",),
    HistoryParityKernel: ("depth", "noise"),
    HistoryFunctionKernel: ("depth", "noise"),
    LocalPatternKernel: ("length", "pattern"),
    NestedLoopKernel: ("trip_counts",),
}


def _slots(kernel) -> dict:
    """Every slot of a kernel: its parameters and its current state."""
    return {
        slot: getattr(kernel, slot)
        for cls in type(kernel).__mro__
        for slot in getattr(cls, "__slots__", ())
    }


def _columns(trace) -> tuple:
    return trace.name, list(trace.pcs), bytes(trace.takens), list(trace.insts)


def _single_category_mix(category: str) -> KernelMix:
    return KernelMix(**{name: float(name == category) for name in CATEGORIES})


def _ranges(low: int, high: int):
    return st.tuples(st.integers(low, high), st.integers(0, high - low)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    )


mixes = st.one_of(
    st.sampled_from(CATEGORIES).map(_single_category_mix),
    st.lists(st.floats(0.0, 1.0), min_size=len(CATEGORIES), max_size=len(CATEGORIES))
    .filter(lambda weights: sum(weights) > 0)
    .map(lambda weights: KernelMix(**dict(zip(CATEGORIES, weights)))),
)

specs = st.builds(
    WorkloadSpec,
    name=st.just("oracle"),
    seed=st.integers(-(2**64), 2**65),
    n_static=st.integers(1, 250),
    n_routines=st.integers(1, 40),
    routine_len=_ranges(1, 12),
    routine_zipf_s=st.floats(0.0, 2.0),
    routine_repeat=_ranges(1, 8),
    transition_locality=st.floats(0.0, 1.0),
    mix=mixes,
    loop_trips=_ranges(1, 40),
    pattern_len=_ranges(1, 10),
    parity_depth=_ranges(1, 12),
    history_fn_depth=_ranges(1, 10),
    correlated_noise=st.sampled_from((0.0, 0.01, 0.3)),
    insts_per_branch=_ranges(1, 20),
)

lengths = st.one_of(st.sampled_from((0, 1)), st.integers(0, 2_500))


@settings(max_examples=100, deadline=None)
@given(spec=specs, first=lengths, second=lengths)
@example(
    spec=WorkloadSpec(name="nested", seed=3, n_static=40, n_routines=6,
                      mix=_single_category_mix("nested_loop")),
    first=1, second=0,
)
@example(
    spec=WorkloadSpec(name="one", seed=9, n_static=1, n_routines=1,
                      mix=_single_category_mix("biased_noisy")),
    first=0, second=1,
)
def test_lazy_workload_matches_eager_oracle(spec, first, second):
    lazy = SyntheticWorkload(spec)
    eager = OracleWorkload(spec)
    assert lazy.routines == eager.routines
    assert lazy.category_histogram() == eager.category_histogram()
    assert [b.pc for b in lazy.branches] == [b.pc for b in eager.branches]

    # A fresh run, a resumed run (kernels carry over), a replay after reset.
    assert _columns(lazy.generate(first)) == _columns(eager.generate(first))
    assert _columns(lazy.generate(second)) == _columns(eager.generate(second))
    lazy.reset()
    eager.reset()
    assert _columns(lazy.generate(second)) == _columns(eager.generate(second))

    for lazy_branch, eager_branch in zip(lazy.branches, eager.branches):
        assert lazy_branch.category == eager_branch.category
        kernel, expected = lazy_branch.kernel, eager_branch.kernel
        assert type(kernel) is type(expected)
        for name in PUBLIC_PARAMETERS[type(kernel)]:
            assert getattr(kernel, name) == getattr(expected, name)
        assert _slots(kernel) == _slots(expected)


def test_kernels_are_built_on_first_execution():
    spec = WorkloadSpec(name="lazy", seed=11, n_static=400, n_routines=30)
    workload = SyntheticWorkload(spec)
    assert not any(branch.kernel_built for branch in workload.branches)
    trace = workload.generate(300)
    executed = set(trace.pcs)
    for branch in workload.branches:
        assert branch.kernel_built == (branch.pc in executed)
    # Forcing an unexecuted branch's kernel builds it.
    idle = next(b for b in workload.branches if not b.kernel_built)
    assert idle.kernel is idle.kernel
    assert idle.kernel_built


def test_phase_source_resumes_kernels_across_phases():
    """``zoo.phase`` keeps one workload per segment, so a returning phase
    continues its kernels: the lazy build must give the stream that
    eager workloads, resumed the same way, give."""
    source = get_source("zoo.phase")
    n_branches = 3 * len(source.segments) * source.phase_length + 17
    oracles = [OracleWorkload(spec) for spec in source.segments]
    pcs, takens, insts = [], [], []
    emitted = 0
    phase = 0
    while emitted < n_branches:
        length = min(source.phase_length, n_branches - emitted)
        piece = oracles[phase % len(oracles)].generate(length)
        pcs += piece.pcs
        takens += piece.takens
        insts += piece.insts
        emitted += length
        phase += 1
    trace = source.generate(n_branches)
    assert (list(trace.pcs), bytes(trace.takens), list(trace.insts)) == (
        pcs, bytes(takens), insts,
    )
