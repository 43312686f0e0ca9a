"""The asyncio confidence server.

One :class:`ConfidenceServer` holds every tenant's
:class:`~repro.serve.state.TenantSession` and serves the wire protocol
of :mod:`repro.serve.protocol`.  The concurrency model is
shard-per-worker:

* a tenant maps to a fixed shard (CRC-32 of the tenant name modulo
  ``n_shards``), and each shard is one FIFO work queue drained by one
  worker task — so per-tenant requests execute serially in arrival
  order (sessions need no locks) while distinct shards interleave
  cooperatively;
* each connection runs one reader task (frames → admission → shard
  queue) over a buffered :class:`~repro.serve.protocol.FrameReader`.
  The buffered reader hands out a pipelined burst without awaiting, so
  before it admits an observe whose shard has work queued it yields
  the loop once, letting that shard's worker step what is queued;
* a connection's replies keep request order in a per-connection line:
  whoever completes the reply at the head of the line — the reader, for
  a reply it makes itself, or the shard worker that stepped the batch —
  writes it and every ready reply behind it, so clients may pipeline
  requests and still receive responses in request order, with no
  writer task in between.

Admission control and fault semantics:

* **per-tenant queue bound** — at most ``max_tenant_queue`` admitted
  but uncompleted observe requests per tenant, across all of the
  tenant's connections; the bound answers an explicit ``ERR_REJECTED``
  frame instead of queueing unboundedly (the rejected batch is *not*
  applied);
* **request timeout** — a request that sits queued past
  ``request_timeout`` answers ``ERR_TIMEOUT`` and is *not* applied, so
  the tenant's decision stream stays an exact function of the
  successfully answered batches;
* **stalled clients** — a connection that stops sending mid-frame for
  ``request_timeout`` seconds is answered with ``ERR_TIMEOUT`` and
  disconnected; its tenant state keeps only the fully received batches,
  and no other tenant is affected;
* **graceful drain** — :meth:`ConfidenceServer.drain` stops accepting
  connections, answers new requests with ``ERR_DRAINING``, completes
  everything already queued, then retires the shard workers and closes
  the remaining connections.
"""

from __future__ import annotations

import asyncio
import zlib
from collections import deque
from contextlib import asynccontextmanager
from dataclasses import dataclass

from repro.serve import protocol
from repro.serve.state import SessionSpec, TenantSession

__all__ = ["ServerConfig", "ConfidenceServer", "running_server"]


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs.

    Attributes:
        host / port: bind address; port 0 picks a free port (tests).
        n_shards: shard worker count (per-tenant serialization units).
        max_tenant_queue: admitted-but-uncompleted observe requests
            allowed per tenant before explicit rejects.
        request_timeout: seconds a request may wait in its shard queue
            (and a client may stall mid-frame) before ``ERR_TIMEOUT``.
        max_batch: records allowed per observe frame.
        service_delay: artificial per-request processing delay in
            seconds — a test/bench hook for making queueing effects
            (rejects, timeouts, saturation) deterministic; 0 in
            production.
    """

    host: str = "127.0.0.1"
    port: int = 0
    n_shards: int = 4
    max_tenant_queue: int = 64
    request_timeout: float = 5.0
    max_batch: int = 8192
    service_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.max_tenant_queue < 1:
            raise ValueError(
                f"max_tenant_queue must be >= 1, got {self.max_tenant_queue}"
            )
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.service_delay < 0:
            raise ValueError(
                f"service_delay must be non-negative, got {self.service_delay}"
            )


class _Work:
    """One admitted observe request, holding its place in its
    connection's reply line until it is stepped or refused."""

    __slots__ = ("session", "pcs", "takens", "deadline", "replies", "frame")

    def __init__(self, session, pcs, takens, deadline, replies):
        self.session = session
        self.pcs = pcs
        self.takens = takens
        self.deadline = deadline
        self.replies = replies
        #: The reply frame, once the batch is stepped or refused.
        self.frame = None


class _Replies:
    """One connection's replies, written in request order.

    Each request takes its place in line as it is read: a reply the
    reader makes at once (HELLO_OK, an error) as its frame, an admitted
    observe as its :class:`_Work`.  Whoever completes a reply — the
    reader for its own replies, the shard worker for a batch — writes
    every reply now ready at the head of the line, so a RESULTS frame goes
    from the worker to the socket with no task in between.  Once the
    socket is gone, writes are dropped, but the line still settles, so
    in-flight work completes without anyone waiting on a dead socket.
    """

    __slots__ = ("_writer", "_line", "_settled")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._line: deque = deque()
        self._settled: asyncio.Future | None = None

    def send(self, frame: bytes) -> None:
        """Reply now, after every earlier reply on the connection."""
        if self._line:
            self._line.append(frame)
        else:
            self._write(frame)

    def hold(self, work: _Work) -> None:
        """Keep ``work``'s place in line until :meth:`complete`."""
        self._line.append(work)

    def complete(self, work: _Work, frame: bytes) -> None:
        """``work``'s reply is ``frame``; release what is now in order."""
        work.frame = frame
        line = self._line
        while line:
            head = line[0]
            if isinstance(head, _Work):
                head = head.frame
                if head is None:
                    break
            line.popleft()
            self._write(head)
        if not line and self._settled is not None and not self._settled.done():
            self._settled.set_result(None)

    async def settled(self) -> None:
        """Return once every reply in line has been released."""
        if self._line:
            self._settled = asyncio.get_running_loop().create_future()
            await self._settled

    def _write(self, frame: bytes) -> None:
        if not self._writer.transport.is_closing():
            self._writer.write(frame)


_WORKER_STOP = object()


class ConfidenceServer:
    """Long-running multi-tenant prediction/confidence server."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self._sessions: dict[str, TenantSession] = {}
        self._inflight: dict[str, int] = {}
        self._shards: list[asyncio.Queue] = []
        self._workers: list[asyncio.Task] = []
        self._writers: set[asyncio.StreamWriter] = set()
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self.n_admitted = 0
        self.n_rejected = 0
        self.n_timed_out = 0
        self.n_answered = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, spawn shard workers, accept connections; returns address."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._shards = [asyncio.Queue() for _ in range(self.config.n_shards)]
        self._workers = [
            asyncio.ensure_future(self._shard_worker(queue))
            for queue in self._shards
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — meaningful after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def draining(self) -> bool:
        return self._draining

    def session_stats(self) -> list[dict]:
        """Per-tenant accounting, in tenant-creation order."""
        return [session.stats() for session in self._sessions.values()]

    async def drain(self) -> None:
        """Graceful shutdown: finish queued work, then stop.

        Idempotent.  New requests arriving while draining are answered
        with ``ERR_DRAINING``; everything admitted before the drain
        started completes and is answered normally.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for queue in self._shards:
            await queue.join()
        for queue in self._shards:
            queue.put_nowait(_WORKER_STOP)
        for worker in self._workers:
            await worker
        self._workers = []
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()

    # -- shard workers -------------------------------------------------

    def _shard_of(self, tenant: str) -> asyncio.Queue:
        index = zlib.crc32(tenant.encode()) % len(self._shards)
        return self._shards[index]

    async def _shard_worker(self, queue: asyncio.Queue) -> None:
        loop = asyncio.get_running_loop()
        while True:
            work = await queue.get()
            if work is _WORKER_STOP:
                queue.task_done()
                return
            try:
                tenant = work.session.spec.tenant
                self._inflight[tenant] -= 1
                if loop.time() > work.deadline:
                    # The batch is dropped, not applied: a TIMEOUT reply
                    # tells the client exactly which prefix of its
                    # stream the session state reflects.
                    self.n_timed_out += 1
                    work.replies.complete(work, _error_frame(
                        protocol.ERR_TIMEOUT, "request queued past its deadline"
                    ))
                    continue
                if self.config.service_delay:
                    await asyncio.sleep(self.config.service_delay)
                try:
                    predictions, codes = work.session.observe_batch(
                        work.pcs, work.takens
                    )
                except Exception as error:  # state bug — answer, don't die
                    frame = _error_frame(protocol.ERR_INTERNAL, repr(error))
                else:
                    self.n_answered += 1
                    frame = protocol.encode_frame(
                        protocol.MSG_RESULTS,
                        protocol.pack_results(predictions, codes),
                    )
                work.replies.complete(work, frame)
            finally:
                queue.task_done()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        replies = _Replies(writer)
        try:
            await self._read_requests(reader, replies)
        finally:
            await replies.settled()
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_requests(
        self, reader: asyncio.StreamReader, replies: _Replies
    ) -> None:
        """Per-connection reader loop; returns when the stream ends."""
        loop = asyncio.get_running_loop()
        frames = protocol.FrameReader(
            reader, body_timeout=self.config.request_timeout
        )
        session: TenantSession | None = None
        while True:
            try:
                frame = await frames.read()
            except asyncio.TimeoutError:
                self.n_timed_out += 1
                replies.send(_error_frame(
                    protocol.ERR_TIMEOUT, "stalled mid-frame"
                ))
                return
            except protocol.ProtocolError as error:
                replies.send(_error_frame(
                    protocol.ERR_BAD_REQUEST, str(error)
                ))
                return
            except (ConnectionError, OSError):
                return
            if frame is None:  # clean EOF (or mid-stream disconnect)
                return
            msg_type, payload = frame

            if msg_type == protocol.MSG_HELLO:
                try:
                    spec = SessionSpec.from_dict(protocol.decode_json(payload))
                    session = self._open_session(spec)
                except (protocol.ProtocolError, ValueError) as error:
                    replies.send(_error_frame(
                        protocol.ERR_BAD_REQUEST, str(error)
                    ))
                    return
                shard = zlib.crc32(spec.tenant.encode()) % len(self._shards)
                replies.send(protocol.encode_frame(
                    protocol.MSG_HELLO_OK,
                    protocol.encode_json({
                        "tenant": spec.tenant,
                        "shard": shard,
                        "predictor": spec.predictor,
                        "estimator": spec.estimator,
                        "observed": session.n_observed,
                    }),
                ))
                continue

            if msg_type == protocol.MSG_CLOSE:
                stats = session.stats() if session is not None else {}
                replies.send(protocol.encode_frame(
                    protocol.MSG_CLOSED, protocol.encode_json(stats)
                ))
                return

            if msg_type != protocol.MSG_OBSERVE:
                replies.send(_error_frame(
                    protocol.ERR_BAD_REQUEST,
                    f"unknown message type {msg_type:#x}",
                ))
                return
            if session is None:
                replies.send(_error_frame(
                    protocol.ERR_BAD_REQUEST, "observe before hello"
                ))
                return
            try:
                pcs, takens = protocol.unpack_observe(payload)
            except protocol.ProtocolError as error:
                replies.send(_error_frame(
                    protocol.ERR_BAD_REQUEST, str(error)
                ))
                return
            if len(pcs) > self.config.max_batch:
                replies.send(_error_frame(
                    protocol.ERR_BAD_REQUEST,
                    f"batch of {len(pcs)} exceeds max_batch "
                    f"({self.config.max_batch})",
                ))
                return

            # -- admission control (explicit replies, never a hang) ----
            tenant = session.spec.tenant
            shard = self._shard_of(tenant)
            if not shard.empty():
                # A pipelined burst comes out of the buffered reader
                # without an await; one turn of the loop lets the
                # shard's worker step what is queued before this batch
                # counts against the tenant's bound.
                await asyncio.sleep(0)
            if self._draining:
                replies.send(_error_frame(
                    protocol.ERR_DRAINING, "server is draining"
                ))
                continue
            inflight = self._inflight.get(tenant, 0)
            if inflight >= self.config.max_tenant_queue:
                self.n_rejected += 1
                replies.send(_error_frame(
                    protocol.ERR_REJECTED,
                    f"tenant {tenant!r} queue full "
                    f"({inflight} requests pending)",
                ))
                continue
            self._inflight[tenant] = inflight + 1
            self.n_admitted += 1
            work = _Work(
                session, pcs, takens,
                deadline=loop.time() + self.config.request_timeout,
                replies=replies,
            )
            replies.hold(work)
            shard.put_nowait(work)

    def _open_session(self, spec: SessionSpec) -> TenantSession:
        """Create the tenant session, or re-attach to the existing one.

        Re-attaching requires an identical spec: tenant identity is the
        state namespace, so two clients disagreeing about the cell the
        tenant runs would corrupt each other's decision streams.
        """
        existing = self._sessions.get(spec.tenant)
        if existing is not None:
            if existing.spec != spec:
                raise ValueError(
                    f"tenant {spec.tenant!r} already exists with a "
                    "different session spec"
                )
            return existing
        session = TenantSession(spec)
        self._sessions[spec.tenant] = session
        return session


def _error_frame(code: int, message: str) -> bytes:
    return protocol.encode_frame(
        protocol.MSG_ERROR, protocol.encode_error(code, message)
    )


@asynccontextmanager
async def running_server(config: ServerConfig | None = None):
    """Context manager running a server for the enclosed block (tests)."""
    server = ConfidenceServer(config)
    await server.start()
    try:
        yield server
    finally:
        await server.drain()
