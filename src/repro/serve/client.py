"""Asyncio client for the confidence server.

:class:`ServeClient` speaks the wire protocol of
:mod:`repro.serve.protocol`.  The two usage shapes:

* **call-and-wait** (:meth:`ServeClient.observe`) — one batch per round
  trip; the replay helpers and the closed-loop driver use this;
* **pipelined** (:meth:`ServeClient.send_observe` +
  :meth:`ServeClient.recv_result`) — many batches in flight on one
  connection; responses come back in request order (a protocol
  guarantee), which is what the open-loop driver and the fault tests
  exploit.

Server error frames surface as typed exceptions
(:class:`ServeRejected`, :class:`ServeTimeout`, :class:`ServeDraining`,
:class:`ServeBadRequest`) so callers can distinguish admission-control
replies from real failures.

Admission-control replies are *safe to retry*: REJECTED and TIMEOUT
both mean the batch was **not applied** to the session, so re-sending
the identical batch cannot double-count branches.  Construct the client
with ``max_retries > 0`` (CLI: ``repro drive --retries N``) and
:meth:`ServeClient.observe` transparently retries those two errors with
capped exponential backoff and deterministic jitter; everything else
(DRAINING, BAD_REQUEST, connection loss) still raises immediately.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass, field

from repro.serve import protocol
from repro.serve.state import SessionSpec

__all__ = [
    "ServeError",
    "ServeRejected",
    "ServeTimeout",
    "ServeDraining",
    "ServeBadRequest",
    "DecisionStream",
    "ServeClient",
    "retry_delay",
]


class ServeError(RuntimeError):
    """An ERROR frame from the server (or a broken conversation)."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(
            f"{protocol.ERROR_NAMES.get(code, code)}: {message}"
        )
        self.code = code
        self.message = message


class ServeRejected(ServeError):
    """Tenant admission queue full — the batch was not applied."""


class ServeTimeout(ServeError):
    """The request missed its server-side deadline — not applied."""


class ServeDraining(ServeError):
    """The server is shutting down gracefully."""


class ServeBadRequest(ServeError):
    """The server rejected the request as malformed/out-of-order."""


_ERROR_TYPES = {
    protocol.ERR_REJECTED: ServeRejected,
    protocol.ERR_TIMEOUT: ServeTimeout,
    protocol.ERR_DRAINING: ServeDraining,
    protocol.ERR_BAD_REQUEST: ServeBadRequest,
}


def _error_from_frame(payload: bytes) -> ServeError:
    code, message = protocol.decode_error(payload)
    return _ERROR_TYPES.get(code, ServeError)(code, message)


@dataclass
class DecisionStream:
    """A served trace's per-branch decisions, in trace order.

    ``codes`` are §5 observation-class codes (multi-class sessions) or
    high-confidence flags (binary sessions) — exactly the server's
    RESULTS columns, concatenated across batches.
    """

    tenant: str
    predictions: list[bool] = field(default_factory=list)
    codes: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.codes)

    def extend(self, predictions: bytes, codes: bytes) -> None:
        self.predictions.extend(byte == 1 for byte in predictions)
        self.codes.extend(codes)


def retry_delay(tenant: str, sequence: int, attempt: int,
                base: float = 0.05, cap: float = 1.0) -> float:
    """Capped exponential backoff with deterministic jitter.

    Jitter derives from (tenant, request sequence, attempt), so many
    tenants rejected by the same admission wave spread their retries out
    instead of re-colliding — yet every schedule is reproducible.
    """
    delay = min(cap, base * (2.0 ** attempt))
    frac = (zlib.crc32(f"{tenant}:{sequence}:{attempt}".encode())
            & 0xFFFFFFFF) / 0xFFFFFFFF
    return delay * (0.5 + 0.5 * frac)


class ServeClient:
    """One connection to a :class:`~repro.serve.server.ConfidenceServer`.

    Args:
        max_retries: how many times :meth:`observe` re-sends a batch the
            server answered with REJECTED or TIMEOUT (both mean "not
            applied").  0 — the default — preserves fail-fast behaviour.
        retry_base: first-retry backoff in seconds.
        retry_cap: backoff ceiling in seconds.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        max_retries: int = 0, retry_base: float = 0.05,
        retry_cap: float = 1.0,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self._frames = protocol.FrameReader(reader)
        self._writer = writer
        self.session: SessionSpec | None = None
        self.max_retries = max_retries
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        #: Batches that eventually succeeded only after >= 1 retry, and
        #: total retry sends — the driver reports both.
        self.n_retried_batches = 0
        self.n_retries = 0
        self._sequence = 0

    @classmethod
    async def connect(
        cls, host: str, port: int, connect_timeout: float = 5.0,
        max_retries: int = 0, retry_base: float = 0.05,
        retry_cap: float = 1.0,
    ) -> "ServeClient":
        """Connect, retrying until ``connect_timeout`` elapses.

        The retry loop makes "start the server, then drive it" scripts
        (CI smoke, the CLI) robust without a separate port-polling step.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + connect_timeout
        while True:
            try:
                reader, writer = await asyncio.open_connection(host, port)
                return cls(reader, writer, max_retries=max_retries,
                           retry_base=retry_base, retry_cap=retry_cap)
            except (ConnectionError, OSError):
                if loop.time() >= deadline:
                    raise
                await asyncio.sleep(0.05)

    # -- conversation --------------------------------------------------

    async def hello(self, spec: SessionSpec) -> dict:
        """Open (or re-attach to) the tenant session; server's HELLO_OK."""
        await self._send(protocol.MSG_HELLO, protocol.encode_json(spec.as_dict()))
        msg_type, payload = await self._recv()
        if msg_type == protocol.MSG_ERROR:
            raise _error_from_frame(payload)
        if msg_type != protocol.MSG_HELLO_OK:
            raise ServeError(
                protocol.ERR_INTERNAL, f"unexpected reply {msg_type:#x} to hello"
            )
        self.session = spec
        return protocol.decode_json(payload)

    async def observe(self, pcs, takens) -> tuple[bytes, bytes]:
        """One batched observe round trip → ``(predictions, codes)``.

        With ``max_retries > 0``, REJECTED/TIMEOUT replies — which
        guarantee the batch was not applied — are retried with capped
        exponential backoff + deterministic jitter before surfacing.
        The pipelined halves (:meth:`send_observe`/:meth:`recv_result`)
        never retry: in-flight ordering makes a re-send ambiguous there.
        """
        tenant = self.session.tenant if self.session else ""
        sequence = self._sequence
        self._sequence += 1
        attempt = 0
        while True:
            try:
                await self.send_observe(pcs, takens)
                result = await self.recv_result()
            except (ServeRejected, ServeTimeout):
                if attempt >= self.max_retries:
                    raise
                await asyncio.sleep(retry_delay(
                    tenant, sequence, attempt,
                    base=self.retry_base, cap=self.retry_cap,
                ))
                attempt += 1
                self.n_retries += 1
            else:
                if attempt:
                    self.n_retried_batches += 1
                return result

    async def send_observe(self, pcs, takens) -> None:
        """Pipelined send half of :meth:`observe`."""
        await self._send(
            protocol.MSG_OBSERVE, protocol.pack_observe(pcs, takens)
        )

    async def recv_result(self) -> tuple[bytes, bytes]:
        """Pipelined receive half; raises typed errors on ERROR frames."""
        msg_type, payload = await self._recv()
        if msg_type == protocol.MSG_ERROR:
            raise _error_from_frame(payload)
        if msg_type != protocol.MSG_RESULTS:
            raise ServeError(
                protocol.ERR_INTERNAL,
                f"unexpected reply {msg_type:#x} to observe",
            )
        return protocol.unpack_results(payload)

    async def replay(self, trace, batch_size: int = 512) -> DecisionStream:
        """Stream a whole trace through the session, batch by batch."""
        if self.session is None:
            raise ServeError(protocol.ERR_BAD_REQUEST, "replay before hello")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        stream = DecisionStream(tenant=self.session.tenant)
        pcs = trace.pcs
        takens = trace.takens
        for start in range(0, len(trace), batch_size):
            predictions, codes = await self.observe(
                pcs[start:start + batch_size], takens[start:start + batch_size]
            )
            stream.extend(predictions, codes)
        return stream

    async def close(self) -> dict:
        """Polite goodbye; returns the server's session accounting."""
        try:
            await self._send(protocol.MSG_CLOSE)
            msg_type, payload = await self._recv()
            stats = (
                protocol.decode_json(payload)
                if msg_type == protocol.MSG_CLOSED
                else {}
            )
        except (ConnectionError, OSError, ServeError):
            stats = {}
        await self.abort()
        return stats

    async def abort(self) -> None:
        """Drop the connection without protocol goodbyes."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- plumbing ------------------------------------------------------

    async def _send(self, msg_type: int, payload: bytes = b"") -> None:
        self._writer.write(protocol.encode_frame(msg_type, payload))
        await self._writer.drain()

    async def _recv(self) -> tuple[int, bytes]:
        frame = await self._frames.read()
        if frame is None:
            raise ServeError(
                protocol.ERR_INTERNAL, "server closed the connection"
            )
        return frame
