"""Binary trace file format.

Layout (little-endian):

====== ======= =====================================
offset size    field
====== ======= =====================================
0      4       magic ``b"RTRC"``
4      2       format version (currently 1)
6      2       name length ``n`` (UTF-8 bytes)
8      n       trace name
8+n    8       record count ``m``
...    m*10    records: u64 pc, u8 taken, u8 insts
====== ======= =====================================

Files whose path ends in ``.gz`` are transparently gzip-compressed.  The
format round-trips every :class:`repro.traces.types.Trace` whose PCs fit
in 64 bits and whose per-record instruction counts fit in 8 bits (both are
asserted at write time).

Reading is streaming: :class:`TraceReader` decodes the record payload in
bounded buffers, so multi-million-branch files replay without eagerly
materializing the whole trace (:meth:`TraceReader.iter_records` /
:meth:`TraceReader.iter_chunks`).  :func:`read_trace` remains the
materialize-everything convenience wrapper.  Each buffer is decoded
once, column-wise (one strided slice per field), straight into the
packed columns a :class:`~repro.traces.types.Trace` holds — an
``array('Q')`` of pcs and byte strings of takens and instruction
counts — so no Python int is made per record; every read path goes
through that one decode.  :func:`write_trace` encodes the same way,
one strided slice per field.

Every malformed input raises :class:`TraceFormatError` with a message
naming the offending field (``magic``, ``version``, ``name``,
``record count``, ``record payload``, ``taken``, ``inst``) — there are
no silent-garbage paths: truncation, non-UTF-8 names, out-of-range
record bytes, trailing data and corrupt gzip streams all fail loudly.
"""

from __future__ import annotations

import gzip
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.traces.types import BranchRecord, Trace

__all__ = [
    "write_trace",
    "read_trace",
    "TraceReader",
    "TraceFormatError",
    "FORMAT_VERSION",
    "MAGIC",
]

MAGIC = b"RTRC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHH")
_COUNT = struct.Struct("<Q")
_RECORD = struct.Struct("<QBB")

#: Records decoded per streaming read (640 KiB payload buffers).
_CHUNK_RECORDS = 65_536

#: Where on-disk PC byte ``k`` (little-endian) lands in a native u64.
_PC_SLOTS = range(8) if sys.byteorder == "little" else range(7, -1, -1)


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or unsupported."""


def _open(path: Path, mode: str) -> BinaryIO:
    if path.suffix == ".gz":
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


def write_trace(trace: Trace, path: str | Path) -> None:
    """Serialize ``trace`` to ``path`` (gzip if the suffix is ``.gz``).

    Every pc fits (a :class:`Trace` refuses a wider one); an instruction
    count outside ``[1, 255]`` is refused before the file is opened.
    """
    path = Path(path)
    name_bytes = trace.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise TraceFormatError(
            f"trace name too long ({len(name_bytes)} bytes; the name field "
            "holds at most 65535)"
        )
    insts = trace.insts
    if insts.typecode != "B" or b"\x00" in insts.tobytes():
        inst = next(inst for inst in insts if not 1 <= inst <= 0xFF)
        raise TraceFormatError(f"inst count {inst} does not fit in 8 bits")
    pc_bytes = memoryview(trace.pcs).cast("B")
    with _open(path, "wb") as stream:
        stream.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(name_bytes)))
        stream.write(name_bytes)
        stream.write(_COUNT.pack(len(trace)))
        for start in range(0, len(trace), _CHUNK_RECORDS):
            end = min(start + _CHUNK_RECORDS, len(trace))
            payload = bytearray(_RECORD.size * (end - start))
            for byte, slot in enumerate(_PC_SLOTS):
                payload[byte::_RECORD.size] = pc_bytes[8 * start + slot:8 * end:8]
            payload[8::_RECORD.size] = trace.takens[start:end]
            payload[9::_RECORD.size] = insts[start:end]
            stream.write(payload)


class TraceReader:
    """Streaming RTRC reader: header up front, records on demand.

    Usable as a context manager::

        with TraceReader(path) as reader:
            for record in reader.iter_records():
                ...

    The header (magic, version, name, record count) is validated in the
    constructor; the record payload is decoded lazily in bounded buffers
    so arbitrarily large traces never materialize eagerly.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._stream = _open(self.path, "rb")
        try:
            header = self._read("header", _HEADER.size, exact=True)
            magic, version, name_len = _HEADER.unpack(header)
            if magic != MAGIC:
                raise TraceFormatError(f"{self.path}: bad magic {magic!r}")
            if version != FORMAT_VERSION:
                raise TraceFormatError(
                    f"{self.path}: unsupported version {version}"
                )
            self.version = version
            name_bytes = self._read("name", name_len, exact=True)
            try:
                self.name = name_bytes.decode("utf-8")
            except UnicodeDecodeError as error:
                raise TraceFormatError(
                    f"{self.path}: name field is not valid UTF-8 ({error})"
                ) from error
            count_bytes = self._read("record count", _COUNT.size, exact=True)
            (self.n_records,) = _COUNT.unpack(count_bytes)
        except BaseException:
            # BaseException, not Exception: a KeyboardInterrupt (or any
            # other non-Exception raise) during header parsing must not
            # leak the file handle either — same idiom as
            # PlaneCache.store's cleanup path.
            self._stream.close()
            raise
        self._consumed = 0

    # -- low-level IO --------------------------------------------------

    def _read(self, field: str, size: int, *, exact: bool = False) -> bytes:
        """Read up to ``size`` bytes, converting every failure mode —
        short reads (when ``exact``) and corrupt compressed streams —
        into a :class:`TraceFormatError` naming the field."""
        try:
            data = self._stream.read(size)
        except (OSError, EOFError, zlib.error) as error:  # BadGzipFile is OSError
            raise TraceFormatError(
                f"{self.path}: corrupt stream while reading {field} ({error})"
            ) from error
        if exact and len(data) != size:
            raise TraceFormatError(
                f"{self.path}: truncated {field} "
                f"(expected {size} bytes, got {len(data)})"
            )
        return data

    # -- record access -------------------------------------------------

    def _iter_columns(
        self, limit: int | None = None
    ) -> Iterator[tuple[array, bytes, bytes]]:
        """Yield the remaining records as validated ``(pcs, takens,
        insts)`` columns, one bounded payload buffer at a time, stopping
        after ``limit`` records (default: all of them)."""
        path = self.path
        wanted = self.n_records
        if limit is not None:
            wanted = min(wanted, self._consumed + max(limit, 0))
        while self._consumed < wanted:
            batch = min(_CHUNK_RECORDS, wanted - self._consumed)
            payload = self._read("record payload", batch * _RECORD.size)
            got, extra = divmod(len(payload), _RECORD.size)
            if got != batch or extra:
                raise TraceFormatError(
                    f"{path}: expected {self.n_records} records, record "
                    f"payload truncated at record {self._consumed + got}"
                )
            yield _decode_columns(payload, self._consumed, path)
            self._consumed += batch

    def iter_records(self, limit: int | None = None) -> Iterator[BranchRecord]:
        """Yield the remaining records (at most ``limit``), decoding in
        bounded buffers."""
        for pcs, takens, insts in self._iter_columns(limit):
            for pc, taken, inst in zip(pcs, takens, insts):
                yield BranchRecord(pc, taken == 1, inst)

    def iter_chunks(self, chunk_size: int = _CHUNK_RECORDS) -> Iterator[Trace]:
        """Yield the records as :class:`Trace` chunks of ``chunk_size``."""
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        pcs = array("Q")
        takens = insts = b""
        for new_pcs, new_takens, new_insts in self._iter_columns():
            # Prepend the previous buffer's partial chunk (< chunk_size).
            pcs += new_pcs
            takens += new_takens
            insts += new_insts
            start = 0
            while len(pcs) - start >= chunk_size:
                end = start + chunk_size
                yield Trace(self.name, pcs[start:end], takens[start:end],
                            insts[start:end])
                start = end
            pcs, takens, insts = pcs[start:], takens[start:], insts[start:]
        if pcs:
            yield Trace(self.name, pcs, takens, insts)

    def read_columns(
        self, limit: int | None = None
    ) -> tuple[array, bytearray, bytearray]:
        """The remaining records (at most ``limit``) as ``(pcs, takens,
        insts)`` columns — the arguments of :class:`Trace`: an
        ``array('Q')`` and two byte strings.  Trailing data is not
        checked (see :meth:`read`)."""
        pcs = array("Q")
        takens = bytearray()
        insts = bytearray()
        for new_pcs, new_takens, new_insts in self._iter_columns(limit):
            pcs += new_pcs
            takens += new_takens
            insts += new_insts
        return pcs, takens, insts

    def read(self) -> Trace:
        """Materialize every remaining record, then reject trailing data."""
        trace = Trace(self.name, *self.read_columns())
        trailing = self._read("end of file", 1)
        if trailing:
            raise TraceFormatError(
                f"{self.path}: trailing data after {self.n_records} records"
            )
        return trace

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _decode_columns(
    payload: bytes, first: int, path: Path
) -> tuple[array, bytes, bytes]:
    """Decode whole 10-byte records column-wise: each field is one
    strided slice of the payload, so no per-record Python work remains.

    The eight PC bytes of every record are interleaved into a packed
    u64 buffer (little-endian on disk; mirrored slots on big-endian
    hosts) that becomes the ``array('Q')`` pc column.  ``first`` is the
    index of the payload's first record, for error messages; the error
    names the first invalid record, taken byte checked before inst
    count.
    """
    takens = payload[8::_RECORD.size]
    insts = payload[9::_RECORD.size]
    if takens.translate(None, b"\x00\x01") or b"\x00" in insts:
        for index, (taken, inst) in enumerate(zip(takens, insts)):
            if taken > 1:
                raise TraceFormatError(
                    f"{path}: record {first + index}: "
                    f"invalid taken byte {taken} (must be 0 or 1)"
                )
            if inst < 1:
                raise TraceFormatError(
                    f"{path}: record {first + index}: "
                    f"invalid inst count {inst} (must be >= 1)"
                )
    packed = bytearray(8 * len(takens))
    for byte, slot in enumerate(_PC_SLOTS):
        packed[slot::8] = payload[byte::_RECORD.size]
    pcs = array("Q")
    pcs.frombytes(packed)
    return pcs, takens, insts


def read_trace(path: str | Path) -> Trace:
    """Deserialize a trace previously written by :func:`write_trace`."""
    with TraceReader(path) as reader:
        return reader.read()
