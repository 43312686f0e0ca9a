"""Trace-synthesis bench (not a paper experiment).

Every trace the paper's tables and figures read is synthesized: the 20
CBP-1 and 20 CBP-2 names and the 7 ``zoo.*`` sources, at 4,000
branches under ``repro paper --quick``.  :class:`SyntheticWorkload`
draws its SplitMix64 streams in big-int batches from a counter and
builds a static branch's kernel only when the branch first executes
(most never do at this length).  The eager, method-call oracle
(``tests/traces/oracle_workload.py``) is the workload before that.

Workload: the 47 traces at 4,000 branches, in process, once through
the oracle and once through the production workload (``zoo.phase``
builds its segment workloads with the leg's class).  The
``zoo.jrs-inversion`` period search is warmed first: it simulates
probe streams, which is not synthesis, and is the same in both legs.
Both legs must give identical columns.  Emits
``benchmarks/records/BENCH_synthesis.json`` with the ``speedup`` and a
``layers`` split of both legs: workload construction versus generation
(which now includes building the kernels of executed branches; the
other zoo sources are all generation).

A second bench times the C twin of one-shot synthesis
(:func:`~repro.traces.workload.synthesize` with the C build, the path
every CBP name takes) against the pure workload on the 40 CBP traces
at 4,000 branches, asserts identical columns and emits
``benchmarks/records/BENCH_synthesis_twin.json`` with its own compared
``speedup`` (pure seconds / C seconds).  It skips when the C build does
not resolve.
"""

from __future__ import annotations

import functools
import time

from conftest import emit, record, run_once  # noqa: F401

from repro.traces.sources import ZOO_SOURCE_NAMES, generators, get_source
from repro.traces.suites import CBP1_TRACE_NAMES, CBP2_TRACE_NAMES, trace_spec
import pytest

from repro.sim.fast import compiled
from repro.traces.workload import SyntheticWorkload, synthesize
from tests.traces.oracle_workload import OracleWorkload

SUITE = CBP1_TRACE_NAMES + CBP2_TRACE_NAMES
BRANCHES = 4_000
#: Alternating repetitions per leg; each leg reports its fastest.
REPEATS = 5
#: The production workload must beat the oracle by at least this factor.
SPEEDUP_TARGET = 1.3
#: The C twin must beat the pure workload by at least this factor.
TWIN_SPEEDUP_TARGET = 5.0


class _ConstructionTimer:
    """A workload class whose constructor adds its seconds to a total."""

    def __init__(self, cls) -> None:
        self.seconds = 0.0
        timer = self

        class Timed(cls):
            def __init__(self, spec) -> None:
                start = time.perf_counter()
                super().__init__(spec)
                timer.seconds += time.perf_counter() - start

        self.cls = Timed


def _synthesize(cls, monkeypatch) -> tuple[dict, float, dict]:
    """All 47 traces with workload class ``cls``: (columns, seconds, layers)."""
    timer = _ConstructionTimer(cls)
    columns = {}
    with monkeypatch.context() as patch:
        patch.setattr(generators, "SyntheticWorkload", timer.cls)
        start = time.perf_counter()
        for name in SUITE:
            trace = timer.cls(trace_spec(name)).generate(BRANCHES)
            columns[name] = (trace.pcs, trace.takens, trace.insts)
        for name in ZOO_SOURCE_NAMES:
            trace = get_source(name).generate(BRANCHES)
            columns[name] = (trace.pcs, trace.takens, trace.insts)
        seconds = time.perf_counter() - start
    layers = {
        "construct": {"seconds": round(timer.seconds, 4)},
        "generate": {"seconds": round(seconds - timer.seconds, 4)},
    }
    return columns, seconds, layers


def _best_of(legs, monkeypatch) -> dict:
    """Alternate the legs :data:`REPEATS` times; keep each one's fastest."""
    best: dict = {}
    for _ in range(REPEATS):
        for name, cls in legs:
            run = _synthesize(cls, monkeypatch)
            if name not in best or run[1] < best[name][1]:
                best[name] = run
    return best


def test_synthesis_wallclock(run_once, monkeypatch):
    get_source("zoo.jrs-inversion").period  # the search, outside the timings
    legs = (("oracle", OracleWorkload), ("lazy", SyntheticWorkload))
    best = run_once(functools.partial(_best_of, legs, monkeypatch))
    oracle_columns, oracle_seconds, oracle_layers = best["oracle"]
    lazy_columns, lazy_seconds, lazy_layers = best["lazy"]

    # The same bytes, trace for trace.
    assert lazy_columns == oracle_columns

    probe = SyntheticWorkload(trace_spec("176.gcc"))
    probe.generate(BRANCHES)
    built = sum(branch.kernel_built for branch in probe.branches)

    speedup = oracle_seconds / max(lazy_seconds, 1e-9)
    payload = {
        "bench": "synthesis",
        "traces": len(SUITE) + len(ZOO_SOURCE_NAMES),
        "branches_per_trace": BRANCHES,
        "oracle_seconds": round(oracle_seconds, 4),
        "lazy_seconds": round(lazy_seconds, 4),
        "speedup": round(speedup, 2),
        "speedup_target": SPEEDUP_TARGET,
        "gcc_kernels_built": built,
        "gcc_static_branches": len(probe.branches),
        "layers": {"oracle": oracle_layers, "lazy": lazy_layers},
    }
    record("synthesis", payload)

    lines = [
        f"synthesis bench: {len(SUITE)} suite traces + {len(ZOO_SOURCE_NAMES)} "
        f"zoo sources x {BRANCHES} branches, best of {REPEATS}",
    ]
    for leg, seconds, layers in (
        ("oracle", oracle_seconds, oracle_layers),
        ("lazy", lazy_seconds, lazy_layers),
    ):
        lines.append(
            f"{leg:7s} {seconds:.3f}s (construct "
            f"{layers['construct']['seconds']:.3f}s, generate "
            f"{layers['generate']['seconds']:.3f}s)"
        )
    lines.append(
        f"176.gcc builds {built} of {len(probe.branches)} kernels at "
        f"{BRANCHES} branches"
    )
    lines.append(f"speedup: {speedup:.2f}x (target >= {SPEEDUP_TARGET:g}x)")
    emit("synthesis", "\n".join(lines))

    assert speedup >= SPEEDUP_TARGET, (
        f"synthesis only {speedup:.2f}x faster than the eager oracle "
        f"({oracle_seconds:.3f}s -> {lazy_seconds:.3f}s)"
    )


def _suite_columns(synthesize_one) -> tuple[dict, float]:
    """The 40 CBP traces through ``synthesize_one(spec)``: (columns, seconds)."""
    columns = {}
    start = time.perf_counter()
    for name in SUITE:
        trace = synthesize_one(trace_spec(name))
        columns[name] = (trace.pcs, trace.takens, trace.insts)
    return columns, time.perf_counter() - start


def test_synthesis_twin_wallclock(run_once, monkeypatch):
    monkeypatch.setenv(compiled.PROVIDER_ENV, "cext")
    if compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    legs = (
        ("pure", lambda spec: SyntheticWorkload(spec).generate(BRANCHES)),
        ("c", lambda spec: synthesize(spec, BRANCHES)),
    )

    def best_of() -> dict:
        best: dict = {}
        for _ in range(REPEATS):
            for name, synthesize_one in legs:
                run = _suite_columns(synthesize_one)
                if name not in best or run[1] < best[name][1]:
                    best[name] = run
        return best

    best = run_once(best_of)
    pure_columns, pure_seconds = best["pure"]
    c_columns, c_seconds = best["c"]
    assert c_columns == pure_columns

    speedup = pure_seconds / max(c_seconds, 1e-9)
    record("synthesis_twin", {
        "bench": "synthesis_twin",
        "traces": len(SUITE),
        "branches_per_trace": BRANCHES,
        "pure_seconds": round(pure_seconds, 4),
        "c_seconds": round(c_seconds, 4),
        "speedup": round(speedup, 2),
        "speedup_target": TWIN_SPEEDUP_TARGET,
    })
    emit("synthesis_twin", "\n".join([
        f"synthesis twin bench: {len(SUITE)} CBP traces x {BRANCHES} "
        f"branches, best of {REPEATS}",
        f"pure    {pure_seconds:.3f}s",
        f"c       {c_seconds:.3f}s",
        f"speedup: {speedup:.2f}x (target >= {TWIN_SPEEDUP_TARGET:g}x)",
    ]))
    assert speedup >= TWIN_SPEEDUP_TARGET, (
        f"the C twin is only {speedup:.2f}x faster than the pure workload "
        f"({pure_seconds:.3f}s -> {c_seconds:.3f}s)"
    )
