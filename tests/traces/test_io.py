"""Tests for trace file IO."""

import gzip
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.io import (
    _CHUNK_RECORDS,
    MAGIC,
    TraceFormatError,
    TraceReader,
    read_trace,
    write_trace,
)
from repro.traces.types import BranchRecord, Trace


def make_trace(n=20):
    return Trace(
        "io-test",
        [0x400000 + 4 * i for i in range(n)],
        [i % 3 == 0 for i in range(n)],
        [1 + (i % 7) for i in range(n)],
    )


class TestRoundTrip:
    def test_plain_file(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.rtrc"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.name == trace.name
        assert loaded.pcs == trace.pcs
        assert bytes(loaded.takens) == bytes(trace.takens)
        assert loaded.insts == trace.insts

    def test_gzip_file(self, tmp_path):
        trace = make_trace(50)
        path = tmp_path / "t.rtrc.gz"
        write_trace(trace, path)
        with open(path, "rb") as stream:
            assert stream.read(2) == b"\x1f\x8b"  # gzip magic
        loaded = read_trace(path)
        assert loaded.pcs == trace.pcs

    def test_empty_trace(self, tmp_path):
        trace = Trace("empty", [], [], [])
        path = tmp_path / "empty.rtrc"
        write_trace(trace, path)
        assert len(read_trace(path)) == 0

    def test_unicode_name(self, tmp_path):
        trace = Trace("tracé-λ", [4], [1], [3])
        path = tmp_path / "u.rtrc"
        write_trace(trace, path)
        assert read_trace(path).name == "tracé-λ"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**64 - 1),
                st.booleans(),
                st.integers(min_value=1, max_value=255),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, rows):
        import tempfile
        from pathlib import Path

        trace = Trace.from_records("p", [BranchRecord(*row) for row in rows])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.rtrc"
            write_trace(trace, path)
            loaded = read_trace(path)
        assert list(loaded.records()) == list(trace.records())


class TestPackedColumns:
    def test_read_trace_carries_packed_columns(self, tmp_path):
        path = tmp_path / "t.rtrc"
        write_trace(make_trace(), path)
        loaded = read_trace(path)
        assert isinstance(loaded.pcs, array) and loaded.pcs.typecode == "Q"
        assert isinstance(loaded.insts, array) and loaded.insts.typecode == "B"
        assert isinstance(loaded.takens, bytearray)
        with TraceReader(path) as reader:
            chunks = list(reader.iter_chunks(7))
        assert [chunk.pcs.typecode for chunk in chunks] == ["Q"] * 3

    @pytest.mark.parametrize("suffix", [".rtrc", ".rtrc.gz"])
    def test_full_width_pcs_round_trip(self, tmp_path, suffix):
        pcs = [(1 << 64) - 1, 1 << 63, 0, 0x0123456789ABCDEF]
        trace = Trace("wide", pcs, [1, 0, 1, 0], [1, 2, 255, 4])
        path = tmp_path / f"wide{suffix}"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.pcs == array("Q", pcs)
        assert list(loaded.records()) == list(trace.records())

    def test_write_spans_payload_buffers(self, tmp_path):
        n = _CHUNK_RECORDS + 3
        trace = Trace("long", [(1 << 63) + 4 * i for i in range(n)],
                      [i % 3 == 0 for i in range(n)], [1 + i % 9 for i in range(n)])
        path = tmp_path / "long.rtrc"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.pcs == trace.pcs
        assert loaded.takens == trace.takens
        assert loaded.insts == trace.insts

    def test_zero_inst_count_refused_before_writing(self, tmp_path):
        trace = Trace("bad", [0, 4], [1, 1], [1, 0])
        with pytest.raises(TraceFormatError, match="inst count 0 does not fit"):
            write_trace(trace, tmp_path / "bad.rtrc")
        assert not (tmp_path / "bad.rtrc").exists()


class TestValidation:
    def test_pc_too_wide(self):
        # Refused when the trace is built, so no writer ever sees it.
        with pytest.raises(ValueError, match="pc 0x10000000000000000 does not fit"):
            Trace("bad", [2**64], [1], [1])

    def test_inst_too_wide(self, tmp_path):
        trace = Trace("bad", [0], [1], [256])
        with pytest.raises(TraceFormatError):
            write_trace(trace, tmp_path / "bad.rtrc")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rtrc"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_trace(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.rtrc"
        path.write_bytes(MAGIC[:2])
        with pytest.raises(TraceFormatError, match="truncated header"):
            read_trace(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.rtrc"
        path.write_bytes(struct.pack("<4sHH", MAGIC, 9, 0) + struct.pack("<Q", 0))
        with pytest.raises(TraceFormatError, match="unsupported version"):
            read_trace(path)

    def test_truncated_payload(self, tmp_path):
        trace = make_trace(10)
        path = tmp_path / "trunc.rtrc"
        write_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(path)

    def test_truncated_count(self, tmp_path):
        path = tmp_path / "count.rtrc"
        path.write_bytes(struct.pack("<4sHH", MAGIC, 1, 1) + b"x" + b"\x01\x02")
        with pytest.raises(TraceFormatError, match="truncated record count"):
            read_trace(path)


class TestReaderHandleHygiene:
    def test_keyboard_interrupt_during_header_closes_handle(self, tmp_path, monkeypatch):
        """Regression: TraceReader.__init__ cleaned up via ``except
        Exception``, so a KeyboardInterrupt mid-header leaked the open
        file handle."""
        from repro.traces import io as io_module

        path = tmp_path / "ok.rtrc"
        write_trace(make_trace(5), path)

        opened = []
        real_open = io_module._open

        def spying_open(target, mode):
            stream = real_open(target, mode)
            opened.append(stream)
            return stream

        def interrupting_read(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(io_module, "_open", spying_open)
        monkeypatch.setattr(io_module.TraceReader, "_read", interrupting_read)
        with pytest.raises(KeyboardInterrupt):
            io_module.TraceReader(path)
        assert len(opened) == 1
        assert opened[0].closed

    def test_format_error_during_header_closes_handle(self, tmp_path, monkeypatch):
        from repro.traces import io as io_module

        path = tmp_path / "junk.rtrc"
        path.write_bytes(b"NOPE" + b"\x00" * 16)

        opened = []
        real_open = io_module._open

        def spying_open(target, mode):
            stream = real_open(target, mode)
            opened.append(stream)
            return stream

        monkeypatch.setattr(io_module, "_open", spying_open)
        with pytest.raises(TraceFormatError, match="bad magic"):
            io_module.TraceReader(path)
        assert opened[0].closed


class TestColumnarDecode:
    """The reader decodes each payload buffer column-wise; errors must
    still name the *first* bad record, by its index in the whole file,
    on every read path."""

    RECORD = struct.Struct("<QBB")

    def _write(self, path, records, count=None, extra=b""):
        blob = struct.pack("<4sHH", MAGIC, 1, 1) + b"x"
        blob += struct.pack("<Q", len(records) if count is None else count)
        blob += b"".join(self.RECORD.pack(*record) for record in records)
        path.write_bytes(blob + extra)
        return path

    def _readers(self, path):
        from repro.traces.io import TraceReader
        from repro.traces.sources.replay import FileReplaySource

        def chunks():
            with TraceReader(path) as reader:
                return list(reader.iter_chunks(3))

        def records():
            with TraceReader(path) as reader:
                return list(reader.iter_records())

        return [lambda: read_trace(path), chunks, records,
                lambda: FileReplaySource(str(path)).generate(10**6)]

    def _assert_all_raise(self, path, pattern):
        for read in self._readers(path):
            with pytest.raises(TraceFormatError, match=pattern):
                read()

    def test_invalid_taken_byte_first_index(self, tmp_path):
        records = [(4 * i, 1, 1) for i in range(10)]
        records[6] = (24, 2, 1)
        records[8] = (32, 7, 1)
        path = self._write(tmp_path / "t.rtrc", records)
        self._assert_all_raise(path, r"record 6: invalid taken byte 2 \(must be 0 or 1\)")

    def test_zero_inst_count_first_index(self, tmp_path):
        records = [(4 * i, 0, 3) for i in range(10)]
        records[4] = (16, 0, 0)
        records[7] = (28, 5, 1)   # a later bad taken byte is not reported
        path = self._write(tmp_path / "i.rtrc", records)
        self._assert_all_raise(path, r"record 4: invalid inst count 0 \(must be >= 1\)")

    def test_taken_checked_before_inst_on_the_same_record(self, tmp_path):
        records = [(0, 0, 1), (4, 3, 0)]
        path = self._write(tmp_path / "b.rtrc", records)
        self._assert_all_raise(path, r"record 1: invalid taken byte 3")

    def test_bad_record_in_a_later_buffer_keeps_its_file_index(self, tmp_path):
        from repro.traces.io import _CHUNK_RECORDS

        n = _CHUNK_RECORDS + 5
        records = [(4 * i, i & 1, 1) for i in range(n)]
        records[_CHUNK_RECORDS + 2] = (0, 1, 0)
        path = self._write(tmp_path / "late.rtrc", records)
        with pytest.raises(
            TraceFormatError, match=rf"record {_CHUNK_RECORDS + 2}: invalid inst count 0"
        ):
            read_trace(path)

    def test_truncated_payload_names_record(self, tmp_path):
        records = [(4 * i, 1, 1) for i in range(6)]
        path = self._write(tmp_path / "short.rtrc", records, count=9)
        self._assert_all_raise(
            path, r"expected 9 records, record payload truncated at record 6"
        )

    def test_partial_record_is_truncation(self, tmp_path):
        records = [(4 * i, 1, 1) for i in range(4)]
        path = self._write(tmp_path / "part.rtrc", records)
        path.write_bytes(path.read_bytes()[:-3])
        self._assert_all_raise(path, r"record payload truncated at record 3")

    def test_trailing_data(self, tmp_path):
        path = self._write(tmp_path / "extra.rtrc", [(4, 1, 1)] * 3, extra=b"zz")
        with pytest.raises(TraceFormatError, match="trailing data after 3 records"):
            read_trace(path)

    def test_columns_decode_full_width_pcs(self, tmp_path):
        pcs = [0, 1, 0xFF, 0x0123456789ABCDEF, (1 << 64) - 1, 1 << 63]
        records = [(pc, i & 1, 1 + i) for i, pc in enumerate(pcs)]
        path = self._write(tmp_path / "wide.rtrc", records)
        trace = read_trace(path)
        assert list(trace.pcs) == pcs
        assert list(trace.takens) == [i & 1 for i in range(len(pcs))]
        assert list(trace.insts) == [1 + i for i in range(len(pcs))]
        for read in self._readers(path)[1:]:
            result = read()
            if isinstance(result, list) and result and isinstance(result[0], Trace):
                assert [pc for chunk in result for pc in chunk.pcs] == pcs
            elif isinstance(result, list):
                assert [record.pc for record in result] == pcs
                assert all(type(record.taken) is bool for record in result)
            else:
                assert list(result.pcs) == pcs
