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

Every malformed frame raises :class:`ProtocolError`; oversized frames
are rejected before allocation (:data:`MAX_FRAME`).
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
    "read_frame",
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

_LENGTH = struct.Struct("<I")
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
    return _LENGTH.pack(length) + bytes([msg_type]) + payload


async def read_frame(
    reader: asyncio.StreamReader,
    body_timeout: float | None = None,
) -> tuple[int, bytes] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    An idle connection may sit between frames forever, but once the
    length prefix has arrived the rest of the frame must follow within
    ``body_timeout`` seconds — a stalled client mid-frame raises
    :class:`asyncio.TimeoutError` instead of pinning the reader task
    (the server answers with an ``ERR_TIMEOUT`` frame and disconnects).

    Raises:
        ProtocolError: truncated frame, zero/oversized length prefix.
        asyncio.TimeoutError: frame body stalled past ``body_timeout``.
    """
    prefix = await reader.read(_LENGTH.size)
    if not prefix:
        return None
    while len(prefix) < _LENGTH.size:
        more = await _read_with_timeout(
            reader, _LENGTH.size - len(prefix), body_timeout
        )
        if not more:
            raise ProtocolError(
                f"truncated length prefix ({len(prefix)} of {_LENGTH.size} bytes)"
            )
        prefix += more
    (length,) = _LENGTH.unpack(prefix)
    if length == 0:
        raise ProtocolError("zero-length frame (a frame always has a type byte)")
    if length > MAX_FRAME:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME})"
        )
    body = b""
    while len(body) < length:
        more = await _read_with_timeout(reader, length - len(body), body_timeout)
        if not more:
            raise ProtocolError(
                f"truncated frame body ({len(body)} of {length} bytes)"
            )
        body += more
    return body[0], body[1:]


async def _read_with_timeout(
    reader: asyncio.StreamReader, n: int, timeout: float | None
) -> bytes:
    if timeout is None:
        return await reader.read(n)
    return await asyncio.wait_for(reader.read(n), timeout)


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


def unpack_observe(payload: bytes) -> tuple[list[int], bytes]:
    """OBSERVE payload → ``(pcs, takens)`` columns."""
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
    return pcs.tolist(), bytes(takens)


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
