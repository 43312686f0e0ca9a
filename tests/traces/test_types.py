"""Tests for the trace model."""

from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traces.types import BranchRecord, Trace


def make_trace(n=5):
    return Trace("t", list(range(n)), [i % 2 for i in range(n)], [1 + i for i in range(n)])


class TestBranchRecord:
    def test_defaults(self):
        record = BranchRecord(pc=0x400, taken=True)
        assert record.inst_count == 1

    def test_fields(self):
        record = BranchRecord(0x10, False, 7)
        assert (record.pc, record.taken, record.inst_count) == (0x10, False, 7)


class TestTrace:
    def test_length_and_iteration(self):
        trace = make_trace(4)
        assert len(trace) == 4
        records = list(trace)
        assert records[1] == BranchRecord(1, True, 2)

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace("bad", [1, 2], [1], [1, 1])

    def test_from_records_roundtrip(self):
        source = [BranchRecord(4 * i, bool(i % 3), 1 + i % 5) for i in range(20)]
        trace = Trace.from_records("rt", source)
        assert list(trace.records()) == source

    def test_from_records_rejects_zero_insts(self):
        with pytest.raises(ValueError):
            Trace.from_records("bad", [BranchRecord(0, True, 0)])

    def test_total_instructions(self):
        trace = make_trace(3)  # insts 1,2,3
        assert trace.total_instructions == 6

    def test_taken_count(self):
        trace = make_trace(4)  # takens 0,1,0,1
        assert trace.taken_count == 2

    def test_record_random_access(self):
        trace = make_trace(5)
        assert trace.record(3) == BranchRecord(3, True, 4)

    def test_head(self):
        trace = make_trace(5)
        head = trace.head(2)
        assert len(head) == 2
        assert head.name == trace.name
        assert list(head.pcs) == [0, 1]

    def test_head_negative(self):
        with pytest.raises(ValueError):
            make_trace().head(-1)

    def test_concat(self):
        a, b = make_trace(2), make_trace(3)
        joined = a.concat(b)
        assert len(joined) == 5
        assert list(joined.pcs) == [0, 1, 0, 1, 2]

    def test_total_instructions_after_head_and_concat(self):
        """The total is summed once per trace; derived traces sum their own."""
        trace = make_trace(5)  # insts 1..5
        assert trace.head(2).total_instructions == 3
        assert trace.head(0).total_instructions == 0
        assert trace.concat(make_trace(3)).total_instructions == 15 + 6
        assert trace.total_instructions == 15

    def test_concat_name(self):
        joined = make_trace(1).concat(make_trace(1), name="xy")
        assert joined.name == "xy"

    def test_columns_are_packed_copies(self):
        pcs = array("Q", [4, 8])
        trace = Trace("p", pcs, bytearray([1, 0]), [3, 255])
        pcs[0] = 99
        assert trace.pcs == array("Q", [4, 8])
        assert trace.insts == array("B", [3, 255])
        assert isinstance(trace.takens, bytearray)

    def test_wide_inst_counts_keep_eight_bytes(self):
        trace = Trace("w", [0, 4], [1, 1], [1, 256])
        assert trace.insts == array("Q", [1, 256])
        joined = make_trace(2).concat(trace)
        assert joined.insts == array("Q", [1, 2, 1, 256])
        assert joined.total_instructions == 260

    @pytest.mark.parametrize("pc", [-1, 2**64])
    def test_pc_outside_u64_refused(self, pc):
        with pytest.raises(ValueError, match=f"pc {pc:#x} does not fit in 64 bits"):
            Trace("bad", [0, pc], [1, 1], [1, 1])

    def test_full_width_pcs_accepted(self):
        trace = Trace("wide", [(1 << 64) - 1, 1 << 63], [1, 0], [1, 1])
        assert trace.record(0).pc == (1 << 64) - 1
        assert trace.head(1).pcs == array("Q", [(1 << 64) - 1])

    def test_takens_normalized_to_bytes(self):
        trace = Trace("n", [0, 4], [True, 2], [1, 1])
        assert list(trace.takens) == [1, 1]

    @given(st.lists(st.tuples(st.integers(0, 2**32), st.booleans(), st.integers(1, 200)), max_size=60))
    def test_roundtrip_property(self, rows):
        records = [BranchRecord(*row) for row in rows]
        trace = Trace.from_records("p", records)
        assert list(trace.records()) == records
        assert trace.total_instructions == sum(r.inst_count for r in records)
