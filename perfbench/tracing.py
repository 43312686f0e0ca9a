"""Traced runs: spans around each layer's public entry points.

The spans are recorded from benchmark code — :func:`install` wraps the
program's functions and methods in the child process before the
workload starts; the program's source is not edited.  Spans stay in
memory and each process writes its own ``spans-<pid>.json`` when it
ends: the child after the workload, every forked sweep worker when its
``worker_main`` returns, and a traced server when it has drained.

A span is ``[id, parent id, name, start, end]`` on ``time.monotonic``
(system-wide on Linux, so spans of different processes share one
clock).  A forked worker inherits the forking thread's open spans, so
its first spans name the broker's pool span as their parent.

:func:`attribute` turns the merged spans into per-layer self time: each
instant of the traced wall time goes to the innermost active spans
(those with no active child), shared equally when several processes
are busy at once, and to ``other`` when no span is active.  The layer
times therefore sum to the wall time exactly.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Per-layer metrics and their units (the traced run reports all of
#: them on every workload; a layer a workload never enters reads 0).
LAYER_SECONDS = {
    "traces.synth": "traces.synth_s",
    "traces.io": "traces.io_s",
    "planes.compute": "planes.compute_s",
    "planes.load": "planes.load_s",
    "kernels.tage": "kernels.tage_s",
    "kernels.gehl": "kernels.gehl_s",
    "kernels.scan": "kernels.scan_s",
    "sweep.pool": "sweep.pool_s",
    "sweep.inline": "sweep.inline_s",
    "cache.store": "cache.store_s",
    "cache.load": "cache.load_s",
    "journal.append": "journal.append_s",
    "artifacts.build": "artifacts.build_s",
    "apps": "apps.s",
    "artifacts.write": "artifacts.write_s",
    "serve.decode": "serve.decode_s",
    "serve.step": "serve.step_s",
    "serve.encode": "serve.encode_s",
    "other": "other_s",
}
COUNTERS = (
    "traces.synth_calls", "traces.io_records", "planes.computed",
    "planes.loaded", "kernels.cell_branches", "kernels.jobs_fused",
    "sweep.calls", "sweep.pools", "cache.stores", "cache.hits",
    "journal.appends", "serve.requests", "serve.rejected", "serve.timeouts",
)


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self._local = threading.local()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # In a forked child the forking thread's stack (the parent's
        # open spans) survives: the child's spans hang below it.
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()

    def stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self.stack()
        record = [f"{self.pid}.{next(self._ids)}",
                  stack[-1][0] if stack else None, name, time.monotonic(), None]
        stack.append(record)
        try:
            yield record
        finally:
            record[4] = time.monotonic()
            stack.pop()
            self.spans.append(record)

    def inside(self, prefix: str) -> bool:
        """Is a span whose name starts with ``prefix`` already open?"""
        return any(record[2].startswith(prefix) for record in self.stack())

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def dump(self) -> None:
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(
            {"spans": self.spans, "counts": dict(self.counts)}
        ))


def load_spans(out_dir: str | os.PathLike) -> tuple[list[list], Counter]:
    """Merge every process's span file under ``out_dir``."""
    spans: list[list] = []
    counts: Counter = Counter()
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        spans.extend(payload["spans"])
        counts.update(payload["counts"])
    return spans, counts


def attribute(spans, t0: float, t1: float) -> dict[str, float]:
    """Self seconds per span name over the window ``[t0, t1]``.

    Spans are clipped to the window.  Each elementary interval between
    span boundaries is split equally among the active spans that have
    no active child; an interval with no active span goes to
    ``other``.  The values sum to ``t1 - t0``.
    """
    clipped = {}
    for span_id, parent, name, start, end in spans:
        start, end = max(start, t0), min(end, t1)
        if end > start:
            clipped[span_id] = (parent, name, start, end)
    events = []
    for order, (span_id, (_, _, start, end)) in enumerate(
            sorted(clipped.items(), key=lambda item: item[1][2])):
        events.append((start, 1, order, span_id))
        events.append((end, 0, -order, span_id))
    events.sort()

    totals: dict[str, float] = defaultdict(float)
    active: set[str] = set()
    busy_children: dict[str, int] = defaultdict(int)
    counted_parent: dict[str, str] = {}
    previous = t0
    for moment, is_start, _, span_id in events:
        if moment > previous:
            _share(totals, clipped, active, busy_children, moment - previous)
            previous = moment
        parent = clipped[span_id][0]
        if is_start:
            active.add(span_id)
            if parent in active:
                busy_children[parent] += 1
                counted_parent[span_id] = parent
        else:
            active.discard(span_id)
            if span_id in counted_parent:
                busy_children[counted_parent.pop(span_id)] -= 1
    if t1 > previous:
        totals["other"] += t1 - previous
    return dict(totals)


def _share(totals, clipped, active, busy_children, dt: float) -> None:
    leaves = [span_id for span_id in active if busy_children[span_id] == 0]
    if not leaves:
        totals["other"] += dt
        return
    for span_id in leaves:
        totals[clipped[span_id][1]] += dt / len(leaves)


def layer_metrics(spans, counts, t0: float, t1: float) -> dict[str, tuple[float, str]]:
    """The traced run's per-layer metrics over the window ``[t0, t1]``."""
    seconds = attribute(spans, t0, t1)
    unknown = set(seconds) - set(LAYER_SECONDS)
    if unknown:
        raise ValueError(f"spans without a layer: {sorted(unknown)}")
    metrics = {
        metric: (seconds.get(name, 0.0), "s")
        for name, metric in LAYER_SECONDS.items()
    }
    metrics.update({key: (counts.get(key, 0), "count") for key in COUNTERS})
    metrics["traced_wall_s"] = (t1 - t0, "s")
    return metrics


# ---------------------------------------------------------------------------
# Wrapping the program's layers.
# ---------------------------------------------------------------------------

def _replace_everywhere(original, wrapped) -> None:
    """Rebind a module-level function in every loaded ``repro`` module
    that holds it (``from x import f`` copies included)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _timed(recorder: Recorder, name: str, fn, after=None):
    """``fn`` inside a span; ``after(args, result)`` counts its work."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
        return result
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer in this process."""
    from repro.apps import fetch_gating, multipath, smt_policy
    from repro.artifacts import runner as artifacts_runner
    from repro.serve import protocol, state
    from repro.sim.fast import engine, gehl, lockstep, planes, tage
    from repro.sweep import broker, cache, executor, journal
    from repro.traces import io as trace_io
    from repro.traces import workload
    from repro.traces.sources import base as source_base
    from repro.traces.sources import replay

    def function(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace_everywhere(original, _timed(recorder, name, original, after))

    def method(cls, attr, name, after=None, original=None):
        original = original or getattr(cls, attr)
        setattr(cls, attr, _timed(recorder, name, original, after))

    def counter(key, size=None):
        def after(args, result):
            recorder.count(key, 1 if size is None else size(args, result))
        return after

    # traces: synthesis (lookup misses materialize through these) and IO.
    def synth_span(cls):
        original = cls.generate

        @functools.wraps(original)
        def generate(*args, **kwargs):
            if not recorder.inside("traces.synth"):
                recorder.count("traces.synth_calls")
            with recorder.span("traces.synth"):
                return original(*args, **kwargs)
        cls.generate = generate

    file_generate = source_base.TraceSource.generate
    synth_span(workload.SyntheticWorkload)
    synth_span(source_base.TraceSource)
    io_records = counter("traces.io_records", lambda args, result: len(result))
    method(replay.FileReplaySource, "generate", "traces.io", io_records,
           original=file_generate)
    function(trace_io, "read_trace", "traces.io", io_records)

    # sim.fast.planes: computed vs loaded, from the calls themselves.
    function(planes, "compute_planes", "planes.compute",
             counter("planes.computed"))
    load_or_compute = planes.PlaneCache.load_or_compute

    @functools.wraps(load_or_compute)
    def planes_load_or_compute(self, *args, **kwargs):
        hits = self.hits
        with recorder.span("planes.compute") as span:
            result = load_or_compute(self, *args, **kwargs)
            if self.hits > hits:
                span[2] = "planes.load"
                recorder.count("planes.loaded")
        return result
    planes.PlaneCache.load_or_compute = planes_load_or_compute

    # sim.fast kernels: branches counted once, at the outermost call.
    def kernel(module, attr, name, fused=False):
        original = getattr(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # The first parameter is the trace (or its arrays); the
            # engine dispatches by keyword, so bind instead of indexing.
            bound = signature.bind(*args, **kwargs).arguments
            cells = len(bound["cells"]) if fused else 1
            if fused:
                recorder.count("kernels.jobs_fused", cells)
            if not recorder.inside("kernels."):
                branches = len(next(iter(bound.values())))
                recorder.count("kernels.cell_branches", branches * cells)
            with recorder.span(name):
                return original(*args, **kwargs)
        _replace_everywhere(original, wrapper)

    for attr in ("simulate_tage_fast", "tage_fast_predictions",
                 "observe_tage_fast"):
        kernel(tage, attr, "kernels.tage")
    kernel(lockstep, "simulate_tage_lockstep", "kernels.tage", fused=True)
    kernel(gehl, "perceptron_fast_run", "kernels.gehl")
    kernel(gehl, "ogehl_fast_run", "kernels.gehl")
    kernel(engine, "simulate_fast", "kernels.scan")
    kernel(engine, "simulate_binary_fast", "kernels.scan")

    # sweep: orchestration in process, pools, and forked workers.
    function(executor, "run_sweep", "sweep.inline", counter("sweep.calls"))
    method(broker.Broker, "run", "sweep.inline")
    method(broker.Broker, "_run_inline", "sweep.inline")
    method(broker.Broker, "_run_pool", "sweep.pool", counter("sweep.pools"))
    worker_main = broker.worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        try:
            return worker_main(*args, **kwargs)
        finally:
            recorder.dump()
    _replace_everywhere(worker_main, traced_worker_main)

    # sweep.cache and sweep.journal.
    method(cache.ResultCache, "store", "cache.store", counter("cache.stores"))
    method(cache.ResultCache, "load", "cache.load", counter(
        "cache.hits", lambda args, result: int(result is not None)))
    method(journal.RunJournal, "append", "journal.append",
           counter("journal.appends"))

    # artifacts and apps.
    function(artifacts_runner, "build_artifact", "artifacts.build")
    function(artifacts_runner, "write_reports", "artifacts.write")
    for cls in (fetch_gating.FetchGatingModel, smt_policy.SmtFetchModel,
                multipath.MultipathModel):
        method(cls, "run", "apps")
        method(cls, "replay", "apps")

    # serve: decode -> step -> encode, with the refusals counted.
    function(protocol, "unpack_observe", "serve.decode",
             counter("serve.requests"))
    function(protocol, "decode_json", "serve.decode")
    method(state.TenantSession, "observe_batch", "serve.step")
    function(protocol, "pack_results", "serve.encode")
    function(protocol, "encode_frame", "serve.encode")
    refusals = {protocol.ERR_REJECTED: "serve.rejected",
                protocol.ERR_TIMEOUT: "serve.timeouts"}

    def count_refusal(args, result):
        if args[0] in refusals:
            recorder.count(refusals[args[0]])
    function(protocol, "encode_error", "serve.encode", count_refusal)
