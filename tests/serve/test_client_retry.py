"""Client-side retry of REJECTED/TIMEOUT replies (``repro drive --retries``).

A scripted asyncio server — not a real ConfidenceServer — answers each
observe with a planned sequence of error/result frames, so the tests pin
exactly which reply codes get retried, how many times, and that
forbidden codes (DRAINING, BAD_REQUEST) never do.
"""

import asyncio
import contextlib

import pytest

from repro.serve import (
    ServeBadRequest,
    ServeClient,
    ServeDraining,
    ServeRejected,
    ServeTimeout,
    SessionSpec,
    protocol,
)
from repro.serve.client import retry_delay

_SPEC = SessionSpec(tenant="t0", predictor="gshare", estimator="jrs")

_PCS = [4096 + 8 * i for i in range(4)]
_TAKENS = bytes([1, 0, 1, 1])


class ScriptedServer:
    """Answers hello, then plays a per-observe script of reply thunks."""

    def __init__(self, script):
        # script: list of lists; observe request k consumes script[k]'s
        # next entry on each arrival (an int error code or "ok").
        self.script = [list(entries) for entries in script]
        self.n_observes = 0
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    async def _serve(self, reader, writer):
        sends = 0
        frames = protocol.FrameReader(reader)
        with contextlib.suppress(ConnectionError, asyncio.IncompleteReadError):
            while True:
                frame = await frames.read()
                if frame is None:
                    break
                msg_type, payload = frame
                if msg_type == protocol.MSG_HELLO:
                    reply = protocol.encode_frame(
                        protocol.MSG_HELLO_OK, protocol.encode_json({})
                    )
                elif msg_type == protocol.MSG_CLOSE:
                    reply = protocol.encode_frame(
                        protocol.MSG_CLOSED, protocol.encode_json({})
                    )
                elif msg_type == protocol.MSG_OBSERVE:
                    self.n_observes += 1
                    entry = sends if sends < len(self.script) else -1
                    plan = self.script[entry] if self.script[entry] else ["ok"]
                    action = plan.pop(0)
                    if not plan:
                        sends += 1
                    if action == "ok":
                        pcs, takens = protocol.unpack_observe(payload)
                        reply = protocol.encode_frame(
                            protocol.MSG_RESULTS,
                            protocol.pack_results(
                                bytes(len(pcs)), bytes(len(pcs))
                            ),
                        )
                    else:
                        reply = protocol.encode_frame(
                            protocol.MSG_ERROR,
                            protocol.encode_error(action, "scripted"),
                        )
                else:
                    break
                writer.write(reply)
                await writer.drain()
        writer.close()


async def _observe_with(script, max_retries):
    async with ScriptedServer(script) as server:
        host, port = server.address
        client = await ServeClient.connect(
            host, port, max_retries=max_retries,
            retry_base=0.001, retry_cap=0.01,
        )
        try:
            await client.hello(_SPEC)
            await client.observe(_PCS, _TAKENS)
            return client, server
        finally:
            await client.abort()


class TestRetryDelay:
    def test_deterministic_capped_and_jittered(self):
        delays = [retry_delay("t", 0, a, base=0.05, cap=1.0) for a in range(8)]
        assert delays == [retry_delay("t", 0, a, base=0.05, cap=1.0)
                          for a in range(8)]
        assert all(0.025 <= d <= 1.0 for d in delays)
        # Different tenants de-synchronize.
        assert retry_delay("a", 0, 0) != retry_delay("b", 0, 0)


class TestObserveRetry:
    def test_rejected_then_ok_is_transparent(self):
        client, server = asyncio.run(_observe_with(
            [[protocol.ERR_REJECTED, protocol.ERR_REJECTED, "ok"]],
            max_retries=3,
        ))
        assert server.n_observes == 3
        assert client.n_retries == 2
        assert client.n_retried_batches == 1

    def test_timeout_then_ok_is_transparent(self):
        client, server = asyncio.run(_observe_with(
            [[protocol.ERR_TIMEOUT, "ok"]], max_retries=1,
        ))
        assert server.n_observes == 2
        assert client.n_retries == 1

    def test_retries_exhausted_raises_last_error(self):
        with pytest.raises(ServeRejected):
            asyncio.run(_observe_with(
                [[protocol.ERR_REJECTED] * 4], max_retries=2,
            ))

    def test_zero_retries_is_fail_fast(self):
        with pytest.raises(ServeTimeout):
            asyncio.run(_observe_with(
                [[protocol.ERR_TIMEOUT, "ok"]], max_retries=0,
            ))

    @pytest.mark.parametrize("code,exc", [
        (protocol.ERR_DRAINING, ServeDraining),
        (protocol.ERR_BAD_REQUEST, ServeBadRequest),
    ])
    def test_non_retryable_errors_surface_immediately(self, code, exc):
        with pytest.raises(exc):
            asyncio.run(_observe_with([[code, "ok"]], max_retries=5))

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            ServeClient(None, None, max_retries=-1)
