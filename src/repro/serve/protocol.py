"""The confidence-serving wire protocol.

Every message is one length-prefixed frame (little-endian)::

    u32 length | u8 type | payload            # length = 1 + len(payload)

Control messages (HELLO and its reply, CLOSE/CLOSED, ERROR) carry small
JSON payloads; the hot-path OBSERVE/RESULTS pair is packed binary so a
batch of branches costs 9 bytes up and 2 bytes down per record:

* ``OBSERVE``: ``u32 count`` then ``count × (u64 pc | u8 taken)`` — the
  resolved direction ships with the request, mirroring the offline
  replay loops (the trace is the ground truth; the server's job is the
  deterministic prediction/confidence decision stream, not oracle
  direction guessing).
* ``RESULTS``: ``u32 count`` then ``count × (u8 prediction | u8 code)``
  where ``code`` indexes
  :data:`repro.confidence.classes.OBSERVATION_CLASS_CODES` for multi-class
  (``tage``) sessions and is the high-confidence flag (0/1) for binary
  estimator sessions.

Batching amortizes round trips; a request is answered by exactly one
frame (RESULTS on success, ERROR with a reason code otherwise), and
responses preserve request order per connection, so clients may pipeline
freely.

Both ends read through one :class:`FrameReader`, which takes up to
:data:`READ_CHUNK` bytes per wait on the stream and hands out every
frame already whole in its buffer without waiting.  An OBSERVE decodes
to a u64 ``array('Q')`` pc column that reaches the TAGE kernel without
another copy.  Every malformed frame raises :class:`ProtocolError`;
oversized frames are refused from their length prefix, before their
body is awaited (:data:`MAX_FRAME`).
"""

from __future__ import annotations

import asyncio
import json
import struct
import sys
from array import array

__all__ = [
    "MSG_HELLO",
    "MSG_OBSERVE",
    "MSG_CLOSE",
    "MSG_HELLO_OK",
    "MSG_RESULTS",
    "MSG_CLOSED",
    "MSG_ERROR",
    "ERR_REJECTED",
    "ERR_TIMEOUT",
    "ERR_BAD_REQUEST",
    "ERR_DRAINING",
    "ERR_INTERNAL",
    "ERROR_NAMES",
    "MAX_FRAME",
    "ProtocolError",
    "encode_frame",
    "FrameReader",
    "READ_CHUNK",
    "encode_json",
    "decode_json",
    "pack_observe",
    "unpack_observe",
    "pack_results",
    "unpack_results",
    "encode_error",
    "decode_error",
]

# -- message types (client → server) ----------------------------------------
MSG_HELLO = 0x01
MSG_OBSERVE = 0x02
MSG_CLOSE = 0x03

# -- message types (server → client) ----------------------------------------
MSG_HELLO_OK = 0x81
MSG_RESULTS = 0x82
MSG_CLOSED = 0x83
MSG_ERROR = 0x90

# -- error reason codes (ERROR payload byte 0) ------------------------------
ERR_REJECTED = 1      #: tenant admission queue full — retry later
ERR_TIMEOUT = 2       #: request missed its deadline (queued too long / stalled send)
ERR_BAD_REQUEST = 3   #: malformed or out-of-order request
ERR_DRAINING = 4      #: server is shutting down gracefully
ERR_INTERNAL = 5      #: unexpected server-side failure

ERROR_NAMES = {
    ERR_REJECTED: "rejected",
    ERR_TIMEOUT: "timeout",
    ERR_BAD_REQUEST: "bad-request",
    ERR_DRAINING: "draining",
    ERR_INTERNAL: "internal",
}

#: Hard frame-size ceiling (16 MiB): a corrupt length prefix must not
#: trigger a giant allocation.  At 9 bytes per observe record this still
#: allows ~1.8M-branch batches — far past the useful batching range.
MAX_FRAME = 16 * 1024 * 1024
#: Bytes a :class:`FrameReader` asks its stream for per wait: a burst of
#: pipelined 256-branch OBSERVE frames (2,313 bytes each) arrives in one
#: read, and a partial frame's buffer stays within a frame plus a chunk.
READ_CHUNK = 64 * 1024

_LENGTH = struct.Struct("<I")
_HEADER = struct.Struct("<IB")
_COUNT = struct.Struct("<I")
_OBSERVE_RECORD = struct.Struct("<QB")
_RESULT_RECORD = struct.Struct("<BB")
#: ``bytes.translate`` table mapping a byte to its truth value (0/1).
_TRUTH = bytes([0]) + bytes([1]) * 255


class ProtocolError(ValueError):
    """A malformed, oversized or truncated protocol frame."""


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    """One wire frame: length prefix, type byte, payload."""
    if not 0 <= msg_type <= 0xFF:
        raise ProtocolError(f"message type {msg_type:#x} does not fit in a byte")
    length = 1 + len(payload)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"frame of {length} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return _HEADER.pack(length, msg_type) + payload


class FrameReader:
    """Buffered frame reader over one connection's stream.

    Each wait for data reads up to :data:`READ_CHUNK` bytes, and
    :meth:`read` returns a frame already whole in the buffer without
    waiting, so a pipelined burst costs one stream read instead of two
    per frame.  An idle connection may sit between frames forever, but
    once part of a frame has arrived every further read must deliver
    within ``body_timeout`` seconds — a stalled client mid-frame raises
    :class:`asyncio.TimeoutError` instead of pinning the reader task
    (the server answers with an ``ERR_TIMEOUT`` frame and disconnects).
    The timer is armed only while a frame is partial.
    """

    __slots__ = ("_stream", "_buffer", "_body_timeout")

    def __init__(self, stream: asyncio.StreamReader,
                 body_timeout: float | None = None) -> None:
        self._stream = stream
        self._buffer = bytearray()
        self._body_timeout = body_timeout

    async def read(self) -> tuple[int, bytes] | None:
        """The next frame; ``None`` on clean EOF at a frame boundary.

        Raises:
            ProtocolError: truncated frame, zero/oversized length prefix
                (refused from the prefix, before its body is awaited).
            asyncio.TimeoutError: a partial frame stalled past
                ``body_timeout``.
        """
        buffer = self._buffer
        while True:
            if len(buffer) >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buffer)
                if length == 0:
                    raise ProtocolError(
                        "zero-length frame (a frame always has a type byte)"
                    )
                if length > MAX_FRAME:
                    raise ProtocolError(
                        f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME})"
                    )
                end = _LENGTH.size + length
                if len(buffer) >= end:
                    msg_type = buffer[_LENGTH.size]
                    with memoryview(buffer) as view:
                        payload = bytes(view[_LENGTH.size + 1:end])
                    del buffer[:end]
                    return msg_type, payload
            if buffer and self._body_timeout is not None:
                chunk = await asyncio.wait_for(
                    self._stream.read(READ_CHUNK), self._body_timeout
                )
            else:
                chunk = await self._stream.read(READ_CHUNK)
            if not chunk:
                if not buffer:
                    return None
                if len(buffer) < _LENGTH.size:
                    raise ProtocolError(
                        f"truncated length prefix ({len(buffer)} of "
                        f"{_LENGTH.size} bytes)"
                    )
                raise ProtocolError(
                    f"truncated frame body ({len(buffer) - _LENGTH.size} of "
                    f"{length} bytes)"
                )
            buffer += chunk


# -- JSON control payloads --------------------------------------------------

def encode_json(value: dict) -> bytes:
    """Canonical (sorted, compact) JSON payload bytes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def decode_json(payload: bytes) -> dict:
    try:
        value = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed JSON control payload ({error})") from error
    if not isinstance(value, dict):
        raise ProtocolError(
            f"control payload must be a JSON object, got {type(value).__name__}"
        )
    return value


# -- binary hot-path payloads -----------------------------------------------
#
# Each payload is encoded and decoded column-wise, with one slice
# assignment per byte lane of the record instead of one struct call per
# record: an OBSERVE record is 8 little-endian pc bytes and a taken
# byte, so lane ``k`` of a pc column is every 9th payload byte from
# offset ``k``.

def _pc_bytes(pcs) -> bytes:
    """The little-endian u64 image of a pc column."""
    try:
        column = array("Q", pcs)
    except OverflowError:
        for pc in pcs:
            if not 0 <= pc < 1 << 64:
                raise ProtocolError(f"pc {pc:#x} does not fit in 64 bits") from None
        raise
    if sys.byteorder != "little":
        column.byteswap()
    return column.tobytes()


def pack_observe(pcs, takens) -> bytes:
    """OBSERVE payload from parallel pc / taken columns."""
    if len(pcs) != len(takens):
        raise ProtocolError(
            f"column length mismatch: {len(pcs)} pcs, {len(takens)} takens"
        )
    count = len(pcs)
    pc_bytes = _pc_bytes(pcs)
    body = bytearray(count * _OBSERVE_RECORD.size)
    for lane in range(8):
        body[lane::9] = pc_bytes[lane::8]
    try:
        flags = bytes(takens).translate(_TRUTH)
    except (TypeError, ValueError):  # not a column of byte values
        flags = bytes(map(bool, takens))
    body[8::9] = flags
    return _COUNT.pack(count) + body


def unpack_observe(payload: bytes) -> tuple[array, bytes]:
    """OBSERVE payload → ``(pcs, takens)`` columns: a u64 ``array('Q')``
    of pcs, which the TAGE kernel reads in place, and the 0/1 bytes."""
    if len(payload) < _COUNT.size:
        raise ProtocolError("observe payload shorter than its count field")
    (count,) = _COUNT.unpack_from(payload)
    body = payload[_COUNT.size:]
    if len(body) != count * _OBSERVE_RECORD.size:
        raise ProtocolError(
            f"observe payload advertises {count} records but carries "
            f"{len(body)} bytes ({count * _OBSERVE_RECORD.size} expected)"
        )
    takens = body[8::9]
    if takens.translate(None, b"\x00\x01"):
        bad = next(taken for taken in takens if taken > 1)
        raise ProtocolError(f"invalid taken byte {bad} (must be 0 or 1)")
    pc_bytes = bytearray(8 * count)
    for lane in range(8):
        pc_bytes[lane::8] = body[lane::9]
    pcs = array("Q", pc_bytes)
    if sys.byteorder != "little":
        pcs.byteswap()
    return pcs, bytes(takens)


def pack_results(predictions: bytes, codes: bytes) -> bytes:
    """RESULTS payload from parallel prediction / class-code columns."""
    if len(predictions) != len(codes):
        raise ProtocolError(
            f"column length mismatch: {len(predictions)} predictions, "
            f"{len(codes)} codes"
        )
    body = bytearray(2 * len(predictions))
    body[0::2] = predictions
    body[1::2] = codes
    return _COUNT.pack(len(predictions)) + body


def unpack_results(payload: bytes) -> tuple[bytes, bytes]:
    """RESULTS payload → ``(predictions, codes)`` byte columns."""
    if len(payload) < _COUNT.size:
        raise ProtocolError("results payload shorter than its count field")
    (count,) = _COUNT.unpack_from(payload)
    body = payload[_COUNT.size:]
    if len(body) != count * _RESULT_RECORD.size:
        raise ProtocolError(
            f"results payload advertises {count} records but carries "
            f"{len(body)} bytes ({count * _RESULT_RECORD.size} expected)"
        )
    return bytes(body[0::2]), bytes(body[1::2])


# -- error payloads ---------------------------------------------------------

def encode_error(code: int, message: str) -> bytes:
    """ERROR payload: reason byte + UTF-8 message."""
    if code not in ERROR_NAMES:
        raise ProtocolError(f"unknown error code {code}")
    return bytes([code]) + message.encode("utf-8")


def decode_error(payload: bytes) -> tuple[int, str]:
    if not payload:
        raise ProtocolError("empty error payload (needs a reason byte)")
    code = payload[0]
    if code not in ERROR_NAMES:
        raise ProtocolError(f"unknown error code {code}")
    return code, payload[1:].decode("utf-8", errors="replace")
