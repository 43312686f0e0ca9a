"""Served-step bench: reference step loop vs kernel sessions (not a
paper experiment).

A multi-class served tenant steps on the TAGE kernel: per request
batch, the ``tage-planes`` builder makes the batch's plane rows from the
session's carried history and the ``tage-batch`` kernel advances its
state block — under the C build, both inside one fused ``tage_step``
call.  This bench replays one trace through such a session in
:data:`BATCH`-branch requests on the 16K/64K/256K presets, under the C
build (``cext``) and the pure kernels (``none``), and times it against
the reference engine's per-branch loop for the same cell
(:func:`repro.serve.driver.offline_decisions`, the oracle served
decisions are checked against).  It asserts bit-identity, splits the
session time into its two layers (building planes, running the kernel,
each a call of its own), times the one fused call per batch the server
makes (``cext`` only; the trace's ``array('Q')`` pc slices, the
column type the protocol decodes to) and emits
``benchmarks/records/BENCH_serve_step.json``.

The trajectory metric ``speedup`` is the reference loop's time over the
``cext`` session's on the 16K cell — the ``serve-closed`` benchmark's
cell — a machine-relative ratio.  Boxes without a C compiler skip.
"""

from __future__ import annotations

import time
from array import array

import pytest

from conftest import bench_speedup_target, emit, record, run_once  # noqa: F401

from repro.serve.driver import offline_decisions
from repro.serve.state import SessionSpec, TenantSession
from repro.sim.fast import compiled
from repro.sim.fast.tage_core import ResumableTageCell, _build_planes, _kernel
from repro.sim.runner import get_trace

TRACE = "INT-1"
N_BRANCHES = 20_000
BATCH = 256
SIZES = ("16K", "64K", "256K")
LEGS = ("cext", "none")
#: Replays per timing; the fastest is reported (a cext session replays
#: the whole trace in milliseconds, so one replay is too noisy).
REPEATS = 3
SPEEDUP_TARGET = bench_speedup_target()


def _spec(size: str) -> SessionSpec:
    return SessionSpec(tenant="bench", predictor=f"tage-{size}", estimator="tage")


def _batches(trace):
    return [(trace.pcs[start:start + BATCH], bytes(trace.takens[start:start + BATCH]))
            for start in range(0, len(trace), BATCH)]


def _session_run(spec, batches) -> tuple[float, bytes, bytes]:
    session = TenantSession(spec)
    predictions, codes = [], []
    started = time.perf_counter()
    for pcs, takens in batches:
        batch_predictions, batch_codes = session.observe_batch(pcs, takens)
        predictions.append(batch_predictions)
        codes.append(batch_codes)
    elapsed = time.perf_counter() - started
    return elapsed, b"".join(predictions), b"".join(codes)


def _resumable(spec) -> ResumableTageCell:
    cell = spec.cell()
    return ResumableTageCell(cell.predictor, cell.estimator, cell.controller)


def _layers(spec, batches) -> dict:
    """Session seconds split into building planes and running the
    kernel, each timed over every batch on its own fresh cell."""
    build = compiled.resolve_tage_planes_kernel()
    kernel = compiled.resolve_tage_kernel()

    cell = _resumable(spec)
    n_rows = 2 + 2 * cell.gparams[compiled.GP_N_TAGGED]
    built = []
    started = time.perf_counter()
    for pcs, takens in batches:
        if build is None:
            built.append(_build_planes(cell.gparams, cell.history, pcs, takens))
        else:
            rows = array("q", bytes(8 * n_rows * len(pcs)))
            build(len(pcs), cell.gparams, cell.history, array("Q", pcs),
                  takens, rows)
            built.append(rows)
    planes_s = time.perf_counter() - started

    cell = _resumable(spec)
    started = time.perf_counter()
    for rows, (pcs, _) in zip(built, batches):
        if kernel is None:
            _kernel(rows, cell.iparams, cell.fparams, cell.state, True, True)
        else:
            kernel(rows, len(pcs), cell.iparams, cell.fparams, cell.state,
                   bytearray(len(pcs)), bytearray(len(pcs)))
    kernel_s = time.perf_counter() - started

    layers = {"planes_s": round(planes_s, 5), "kernel_s": round(kernel_s, 5)}
    fused = compiled.resolve_tage_step_kernel()
    if fused is not None:
        cell = _resumable(spec)
        started = time.perf_counter()
        for pcs, takens in batches:
            n = len(pcs)
            fused(n, cell.gparams, cell.history, pcs, takens, cell.iparams,
                  cell.fparams, cell.state, bytearray(n), bytearray(n))
        layers["fused_s"] = round(time.perf_counter() - started, 5)
    return layers


def _measure(batches, trace, monkeypatch) -> dict:
    rows = {}
    for size in SIZES:
        spec = _spec(size)
        reference_s = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            offline = offline_decisions(spec, trace)
            reference_s = min(reference_s, time.perf_counter() - started)
        expected = (bytes(offline.predictions), bytes(offline.codes))
        per_leg = {}
        for leg in LEGS:
            monkeypatch.setenv(compiled.PROVIDER_ENV, leg)
            runs = [_session_run(spec, batches) for _ in range(REPEATS)]
            session_s = min(seconds for seconds, _, _ in runs)
            _, predictions, codes = runs[0]
            assert (predictions, codes) == expected, (
                f"tage-{size} session on {leg} diverged from the reference"
            )
            per_leg[leg] = {
                "session_s": round(session_s, 5),
                "us_per_branch": round(1e6 * session_s / len(trace), 3),
                "speedup": round(reference_s / session_s, 2),
                "layers": _layers(spec, batches),
            }
        rows[size] = {
            "reference_s": round(reference_s, 5),
            "reference_us_per_branch": round(1e6 * reference_s / len(trace), 3),
            **per_leg,
        }
    return rows


def test_bench_serve_step(run_once, monkeypatch):
    if compiled.active_provider() != "cext":
        pytest.skip(f"no compiled kernel provider "
                    f"({compiled.provider_unavailable_reason()})")
    trace = get_trace(TRACE, N_BRANCHES)
    batches = _batches(trace)
    # Load the C build and warm both legs outside every timing.
    monkeypatch.setenv(compiled.PROVIDER_ENV, "cext")
    _session_run(_spec("16K"), batches[:2])

    rows = run_once(lambda: _measure(batches, trace, monkeypatch))
    speedup = rows["16K"]["cext"]["speedup"]

    lines = [f"{'cell':>10}  {'reference':>10}  "
             + "  ".join(f"{leg + ' us/br':>12}  {'planes/kernel s':>16}" for leg in LEGS)
             + f"  {'fused s':>8}"]
    for size, row in rows.items():
        cells = []
        for leg in LEGS:
            layers = row[leg]["layers"]
            cells.append(f"{row[leg]['us_per_branch']:>12.2f}  "
                         f"{layers['planes_s']:>7.3f}/{layers['kernel_s']:<8.3f}")
        lines.append(f"{'tage-' + size:>10}  "
                     f"{row['reference_us_per_branch']:>7.2f} us  " + "  ".join(cells)
                     + f"  {row['cext']['layers']['fused_s']:>8.4f}")
    lines.append(f"16K reference loop / cext session: {speedup:.1f}x")
    emit("serve_step", "\n".join(lines))

    record("serve_step", {
        "bench": "serve_step",
        "metric": "speedup",
        "trace": TRACE,
        "n_branches": N_BRANCHES,
        "batch_size": BATCH,
        "speedup": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "cells": rows,
    })
    assert speedup >= SPEEDUP_TARGET, (
        f"cext session only {speedup:.2f}x the reference step loop"
    )
