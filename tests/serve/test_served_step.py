"""The served TAGE step against the offline reference.

A ``tage`` tenant steps a :class:`~repro.sim.fast.tage_core.ResumableTageCell`:
one fused C call per batch under ``cext``, the pure plane builder and
kernel under ``none``.  Whatever the batch split, the preset and the pc
column's container, its decisions must equal
:func:`repro.serve.driver.offline_decisions` bit for bit — and a client
that pipelines its requests must get every reply back in request order.
"""

from __future__ import annotations

import asyncio
import functools

import pytest

from repro.serve import ServeClient, ServerConfig, SessionSpec, running_server
from repro.serve.driver import offline_decisions
from repro.sim.fast import compiled
from repro.sim.fast.tage_core import ResumableTageCell
from repro.sim.runner import get_trace

TRACE = "INT-1"
N_BRANCHES = 9_000
BATCHES = (1, 7, 256, 8192)
#: Batches replayed per split: a one-branch split runs the pure leg's
#: whole-table round trip per call, so small splits replay a prefix.
PREFIX_BATCHES = 300
CELLS = (
    ("tage-16K", False),
    ("tage-64K", False),
    ("tage-256K", False),
    ("tage-16K-prob", False),
    ("tage-16K-prob", True),
)


@pytest.fixture(params=("cext", "none"))
def kernel_leg(request, monkeypatch):
    """Pin one kernel leg (``cext`` skips without the C build)."""
    monkeypatch.setenv(compiled.PROVIDER_ENV, request.param)
    if request.param == "cext" and compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    return request.param


@functools.lru_cache(maxsize=None)
def _trace():
    return get_trace(TRACE, N_BRANCHES)


@functools.lru_cache(maxsize=None)
def _expected(predictor: str, adaptive: bool) -> tuple[bytes, bytes]:
    offline = offline_decisions(_spec(predictor, adaptive), _trace())
    return bytes(offline.predictions), bytes(offline.codes)


def _spec(predictor: str, adaptive: bool) -> SessionSpec:
    return SessionSpec(tenant="t", predictor=predictor, estimator="tage",
                       adaptive=adaptive)


def _columns(trace, start: int, stop: int, kind: int):
    """Batch ``[start, stop)`` as a list, an ``array('Q')`` (a trace's
    pc slice) or a memoryview pc column (with bool-list, bytes or
    bytearray outcomes)."""
    pcs = trace.pcs[start:stop]
    takens = trace.takens[start:stop]
    if kind == 0:
        return list(pcs), [taken == 1 for taken in takens]
    if kind == 1:
        return pcs, bytes(takens)
    return memoryview(pcs), bytearray(takens)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("predictor, adaptive", CELLS)
def test_step_matches_offline_decisions(kernel_leg, predictor, adaptive,
                                        batch):
    trace = _trace()
    n = min(len(trace), batch * PREFIX_BATCHES)
    cell = _spec(predictor, adaptive).cell()
    resumable = ResumableTageCell(cell.predictor, cell.estimator,
                                  cell.controller)
    predictions, codes = bytearray(), bytearray()
    for number, start in enumerate(range(0, n, batch)):
        batch_predictions, batch_codes = resumable.step(
            *_columns(trace, start, min(n, start + batch), number % 3)
        )
        predictions += batch_predictions
        codes += batch_codes

    expected_predictions, expected_codes = _expected(predictor, adaptive)
    assert bytes(predictions) == expected_predictions[:n]
    assert bytes(codes) == expected_codes[:n]
    assert resumable.observed == n


def test_cell_resolves_its_kernel_once_at_the_first_step(kernel_leg,
                                                         monkeypatch):
    calls = []
    resolve = compiled.resolve_tage_step_kernel

    def counted():
        calls.append(1)
        return resolve()

    monkeypatch.setattr(compiled, "resolve_tage_step_kernel", counted)
    cell = _spec("tage-16K", False).cell()
    resumable = ResumableTageCell(cell.predictor, cell.estimator,
                                  cell.controller)
    assert calls == []  # nothing resolved before the first batch
    trace = _trace()
    for start in range(0, 768, 256):
        resumable.step(*_columns(trace, start, start + 256, 1))
    assert calls == [1]


def test_pipelined_replies_arrive_in_order(kernel_leg):
    """64 OBSERVEs written before any reply is read: the replies come
    back in request order, bit-identical to the offline reference.  The
    burst is 8x the tenant's queue bound, yet nothing is refused: the
    reader yields to the shard's worker before it admits a batch behind
    queued work, as a reader that awaited each frame did."""
    trace = _trace()
    batch = 64
    n_requests = 64
    n = batch * n_requests
    spec = _spec("tage-16K", False)
    expected_predictions, expected_codes = _expected("tage-16K", False)

    async def main():
        config = ServerConfig(port=0, n_shards=2, max_tenant_queue=8)
        async with running_server(config) as server:
            client = await ServeClient.connect(*server.address)
            await client.hello(spec)
            for start in range(0, n, batch):
                await client.send_observe(trace.pcs[start:start + batch],
                                          trace.takens[start:start + batch])
            replies = [await client.recv_result() for _ in range(n_requests)]
            stats = await client.close()
            return replies, stats, server.n_rejected

    replies, stats, n_rejected = asyncio.run(main())
    assert n_rejected == 0
    for number, (predictions, codes) in enumerate(replies):
        start = number * batch
        assert predictions == expected_predictions[start:start + batch]
        assert codes == expected_codes[start:start + batch]
    assert stats["observed"] == n
