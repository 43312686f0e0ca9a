"""Wire-protocol framing and payload codecs."""

import asyncio
import struct
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve import protocol


def _reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def _read_one(data: bytes):
    async def read():
        return await protocol.FrameReader(_reader_with(data)).read()

    return asyncio.run(read())


def _observe_column(pcs, takens):
    """What ``unpack_observe`` must return for these columns."""
    return array("Q", pcs), bytes(takens)


def _assert_unpacked(got, pcs, takens):
    """``got`` holds a u64 ``array('Q')`` pc column equal to ``pcs``."""
    got_pcs, got_takens = got
    assert type(got_pcs) is array and got_pcs.typecode == "Q"
    assert (got_pcs, got_takens) == _observe_column(pcs, takens)


class TestFrames:
    def test_round_trip(self):
        frame = protocol.encode_frame(protocol.MSG_OBSERVE, b"payload")
        assert _read_one(frame) == (protocol.MSG_OBSERVE, b"payload")

    def test_empty_payload_round_trip(self):
        frame = protocol.encode_frame(protocol.MSG_CLOSE)
        assert _read_one(frame) == (protocol.MSG_CLOSE, b"")

    def test_clean_eof_is_none(self):
        assert _read_one(b"") is None

    def test_back_to_back_frames(self):
        async def read_two():
            reader = _reader_with(
                protocol.encode_frame(protocol.MSG_HELLO, b"a")
                + protocol.encode_frame(protocol.MSG_CLOSE, b"bb")
            )
            frames = protocol.FrameReader(reader)
            return [await frames.read() for _ in range(3)]

        first, second, third = asyncio.run(read_two())
        assert first == (protocol.MSG_HELLO, b"a")
        assert second == (protocol.MSG_CLOSE, b"bb")
        assert third is None

    def test_truncated_body_raises(self):
        frame = protocol.encode_frame(protocol.MSG_OBSERVE, b"payload")
        with pytest.raises(protocol.ProtocolError, match="truncated"):
            _read_one(frame[:-3])

    def test_truncated_length_prefix_raises(self):
        frame = protocol.encode_frame(protocol.MSG_OBSERVE, b"payload")
        with pytest.raises(protocol.ProtocolError, match="truncated"):
            _read_one(frame[:2])

    def test_zero_length_frame_raises(self):
        with pytest.raises(protocol.ProtocolError, match="zero-length"):
            _read_one(b"\x00\x00\x00\x00")

    def test_oversized_length_prefix_rejected_before_allocation(self):
        huge = (protocol.MAX_FRAME + 1).to_bytes(4, "little")
        with pytest.raises(protocol.ProtocolError, match="MAX_FRAME"):
            _read_one(huge)

    def test_oversized_encode_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="MAX_FRAME"):
            protocol.encode_frame(protocol.MSG_OBSERVE, b"x" * protocol.MAX_FRAME)

    def test_type_must_fit_a_byte(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame(0x1FF, b"")

    def test_stalled_body_times_out(self):
        frame = protocol.encode_frame(protocol.MSG_OBSERVE, b"payload")

        async def stall():
            reader = asyncio.StreamReader()
            reader.feed_data(frame[:-3])  # never completes, never EOFs
            await protocol.FrameReader(reader, body_timeout=0.05).read()

        with pytest.raises(asyncio.TimeoutError):
            asyncio.run(stall())


class _CountingReader(asyncio.StreamReader):
    """A stream that counts the reads a FrameReader makes of it."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    async def read(self, n=-1):
        self.reads += 1
        return await super().read(n)


def _run(coro_fn):
    return asyncio.run(coro_fn())


class TestFrameReader:
    FRAMES = [
        (protocol.MSG_HELLO, b"{}"),
        (protocol.MSG_OBSERVE, protocol.pack_observe([0x400000, 7], b"\x01\x00")),
        (protocol.MSG_CLOSE, b""),
    ]

    def _wire(self) -> bytes:
        return b"".join(protocol.encode_frame(t, p) for t, p in self.FRAMES)

    def test_frames_fed_one_byte_at_a_time(self):
        wire = self._wire()

        async def main():
            stream = asyncio.StreamReader()
            frames = protocol.FrameReader(stream, body_timeout=5.0)

            async def feed():
                for byte in wire:
                    stream.feed_data(bytes([byte]))
                    await asyncio.sleep(0)
                stream.feed_eof()

            feeder = asyncio.ensure_future(feed())
            got = [await frames.read() for _ in range(len(self.FRAMES) + 1)]
            await feeder
            return got

        got = _run(main)
        assert got == [*self.FRAMES, None]

    def test_several_frames_in_one_read(self):
        async def main():
            stream = _CountingReader()
            stream.feed_data(self._wire())
            stream.feed_eof()
            frames = protocol.FrameReader(stream)
            got = [await frames.read() for _ in range(len(self.FRAMES))]
            reads = stream.reads
            tail = await frames.read()
            return got, reads, tail

        got, reads, tail = _run(main)
        assert got == self.FRAMES
        assert reads == 1  # every whole frame came out of one read
        assert tail is None

    def test_frame_larger_than_a_read_chunk(self):
        payload = bytes(range(256)) * (3 * protocol.READ_CHUNK // 256 + 1)
        frame = (protocol.MSG_OBSERVE, payload)
        assert _read_one(protocol.encode_frame(*frame)) == frame

    def test_length_prefix_split_across_reads(self):
        wire = protocol.encode_frame(protocol.MSG_OBSERVE, b"payload")

        async def main():
            stream = _CountingReader()
            frames = protocol.FrameReader(stream, body_timeout=5.0)
            stream.feed_data(wire[:2])
            pending = asyncio.ensure_future(frames.read())
            await asyncio.sleep(0.01)
            assert not pending.done()
            stream.feed_data(wire[2:])
            return await pending, stream.reads

        frame, reads = _run(main)
        assert frame == (protocol.MSG_OBSERVE, b"payload")
        assert reads == 2

    @pytest.mark.parametrize("cut, message", [
        (2, "truncated length prefix (2 of 4 bytes)"),
        (4, "truncated frame body (0 of 8 bytes)"),
        (9, "truncated frame body (5 of 8 bytes)"),
    ])
    def test_truncation_messages(self, cut, message):
        frame = protocol.encode_frame(protocol.MSG_OBSERVE, b"payload")
        with pytest.raises(protocol.ProtocolError) as error:
            _read_one(frame[:cut])
        assert str(error.value) == message

    def test_zero_length_message(self):
        with pytest.raises(protocol.ProtocolError) as error:
            _read_one(b"\x00\x00\x00\x00" + b"more")
        assert str(error.value) == (
            "zero-length frame (a frame always has a type byte)"
        )

    def test_oversized_prefix_rejected_before_its_body_arrives(self):
        """The prefix alone is refused: the reader neither waits for the
        body nor needs the stream to end."""
        length = protocol.MAX_FRAME + 1

        async def main():
            stream = _CountingReader()
            stream.feed_data(length.to_bytes(4, "little") + b"\x02")
            frames = protocol.FrameReader(stream, body_timeout=30.0)
            with pytest.raises(protocol.ProtocolError) as error:
                await asyncio.wait_for(frames.read(), timeout=5.0)
            return str(error.value), stream.reads

        message, reads = _run(main)
        assert message == (
            f"frame length {length} exceeds MAX_FRAME ({protocol.MAX_FRAME})"
        )
        assert reads == 1

    def test_idle_gap_between_frames_never_times_out(self):
        first = protocol.encode_frame(protocol.MSG_HELLO, b"a")
        second = protocol.encode_frame(protocol.MSG_CLOSE, b"bb")

        async def main():
            stream = asyncio.StreamReader()
            frames = protocol.FrameReader(stream, body_timeout=0.05)
            stream.feed_data(first)
            got = [await frames.read()]
            pending = asyncio.ensure_future(frames.read())
            await asyncio.sleep(0.25)  # five body timeouts of silence
            stream.feed_data(second)
            got.append(await pending)
            return got

        assert _run(main) == [(protocol.MSG_HELLO, b"a"),
                              (protocol.MSG_CLOSE, b"bb")]

    @pytest.mark.parametrize("cut", [2, 7])
    def test_stall_mid_frame_times_out_after_body_timeout(self, cut):
        frame = protocol.encode_frame(protocol.MSG_OBSERVE, b"payload")

        async def main():
            stream = asyncio.StreamReader()
            stream.feed_data(frame[:cut])  # never completes, never EOFs
            frames = protocol.FrameReader(stream, body_timeout=0.1)
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(asyncio.TimeoutError):
                await frames.read()
            return loop.time() - started

        elapsed = _run(main)
        assert 0.09 <= elapsed < 5.0


class TestObservePayload:
    def test_round_trip(self):
        pcs = [0, 0x400812, 2**64 - 1]
        takens = b"\x01\x00\x01"
        payload = protocol.pack_observe(pcs, takens)
        _assert_unpacked(protocol.unpack_observe(payload), pcs, takens)

    def test_empty_batch(self):
        _assert_unpacked(protocol.unpack_observe(protocol.pack_observe([], b"")),
                         [], b"")

    def test_column_mismatch(self):
        with pytest.raises(protocol.ProtocolError, match="mismatch"):
            protocol.pack_observe([1, 2], b"\x01")

    def test_pc_range(self):
        with pytest.raises(protocol.ProtocolError, match="64 bits"):
            protocol.pack_observe([2**64], b"\x01")

    def test_count_body_mismatch(self):
        payload = protocol.pack_observe([1], b"\x01")
        with pytest.raises(protocol.ProtocolError, match="advertises"):
            protocol.unpack_observe(payload + b"\x00")

    def test_invalid_taken_byte(self):
        payload = bytearray(protocol.pack_observe([1], b"\x01"))
        payload[-1] = 7
        with pytest.raises(protocol.ProtocolError, match="taken byte"):
            protocol.unpack_observe(bytes(payload))

    def test_short_payload(self):
        with pytest.raises(protocol.ProtocolError, match="count"):
            protocol.unpack_observe(b"\x01")


class TestResultsPayload:
    def test_round_trip(self):
        predictions = b"\x01\x00\x01"
        codes = b"\x00\x06\x03"
        payload = protocol.pack_results(predictions, codes)
        assert protocol.unpack_results(payload) == (predictions, codes)

    def test_column_mismatch(self):
        with pytest.raises(protocol.ProtocolError, match="mismatch"):
            protocol.pack_results(b"\x01", b"")

    def test_count_body_mismatch(self):
        payload = protocol.pack_results(b"\x01", b"\x02")
        with pytest.raises(protocol.ProtocolError, match="advertises"):
            protocol.unpack_results(payload[:-1])


# -- per-record oracles of the bulk payload codec ---------------------------

def _oracle_pack_observe(pcs, takens) -> bytes:
    return struct.pack("<I", len(pcs)) + b"".join(
        struct.pack("<QB", pc, 1 if taken else 0)
        for pc, taken in zip(pcs, takens)
    )


def _oracle_unpack_observe(payload: bytes):
    pcs, takens = [], bytearray()
    for pc, taken in struct.iter_unpack("<QB", payload[4:]):
        pcs.append(pc)
        takens.append(taken)
    return pcs, bytes(takens)


def _oracle_pack_results(predictions, codes) -> bytes:
    return struct.pack("<I", len(predictions)) + b"".join(
        struct.pack("<BB", p, c) for p, c in zip(predictions, codes)
    )


_PCS = st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=300)


class TestBulkCodecAgainstOracles:
    @given(data=st.data(), pcs=_PCS)
    def test_observe_matches_per_record_codec(self, data, pcs):
        takens = data.draw(st.one_of(
            st.binary(min_size=len(pcs), max_size=len(pcs)),
            st.lists(st.booleans(), min_size=len(pcs), max_size=len(pcs)),
        ))
        payload = protocol.pack_observe(pcs, takens)
        assert payload == _oracle_pack_observe(pcs, takens)
        _assert_unpacked(protocol.unpack_observe(payload),
                         *_oracle_unpack_observe(payload))

    @given(data=st.data(), pcs=_PCS)
    def test_invalid_taken_byte_names_the_first(self, data, pcs):
        if not pcs:
            return
        payload = bytearray(_oracle_pack_observe(pcs, [0] * len(pcs)))
        bad = data.draw(st.lists(
            st.tuples(st.integers(0, len(pcs) - 1), st.integers(2, 255)),
            min_size=1,
        ))
        for record, value in bad:
            payload[4 + 9 * record + 8] = value
        first = min(record for record, _ in bad)
        with pytest.raises(protocol.ProtocolError,
                           match=f"invalid taken byte {payload[4 + 9 * first + 8]} "):
            protocol.unpack_observe(bytes(payload))

    @given(pc=st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)))
    def test_out_of_range_pc_rejected(self, pc):
        with pytest.raises(protocol.ProtocolError, match="does not fit in 64 bits"):
            protocol.pack_observe([0, pc], b"\x00\x01")

    @given(data=st.data(), n=st.integers(0, 300))
    def test_results_match_per_record_codec(self, data, n):
        predictions = data.draw(st.binary(min_size=n, max_size=n))
        codes = data.draw(st.binary(min_size=n, max_size=n))
        payload = protocol.pack_results(predictions, codes)
        assert payload == _oracle_pack_results(predictions, codes)
        assert protocol.unpack_results(payload) == (predictions, codes)


class TestJsonAndErrorPayloads:
    def test_json_round_trip(self):
        value = {"tenant": "t0", "seed": None, "adaptive": False}
        assert protocol.decode_json(protocol.encode_json(value)) == value

    def test_json_canonical(self):
        assert (protocol.encode_json({"b": 1, "a": 2})
                == protocol.encode_json({"a": 2, "b": 1}))

    def test_json_malformed(self):
        with pytest.raises(protocol.ProtocolError, match="JSON"):
            protocol.decode_json(b"{nope")

    def test_json_non_object(self):
        with pytest.raises(protocol.ProtocolError, match="object"):
            protocol.decode_json(b"[1,2]")

    def test_error_round_trip(self):
        payload = protocol.encode_error(protocol.ERR_REJECTED, "queue full")
        assert protocol.decode_error(payload) == (protocol.ERR_REJECTED, "queue full")

    def test_error_unknown_code(self):
        with pytest.raises(protocol.ProtocolError, match="unknown error code"):
            protocol.decode_error(b"\x63hm")

    def test_error_empty_payload(self):
        with pytest.raises(protocol.ProtocolError, match="reason byte"):
            protocol.decode_error(b"")
