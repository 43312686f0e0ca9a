"""In-memory trace model.

A trace is a sequence of conditional-branch records.  Each record carries
the branch PC, the resolved direction and the number of instructions
executed since the previous record (including the branch itself), which is
what lets the simulator report Mispredictions Per Kilo-Instruction (MPKI)
exactly as the paper does.

A :class:`Trace` stores three packed columns rather than an array of
objects: ``pcs`` is an ``array('Q')`` (the RTRC file's raw u64),
``takens`` a ``bytearray`` of 0/1 and ``insts`` an ``array('B')`` — or
an ``array('Q')`` when some count does not fit in a byte, which no RTRC
file and no built-in generator produces.  That is about 10 bytes per
branch, with no Python int per branch: the RTRC reader and the C
synthesizer fill the columns with buffer copies, and
:meth:`repro.sim.fast.arrays.TraceArrays.from_trace` copies them the
same way for the fast backend's C kernels (and its NumPy views).  The
reference engine iterates the
columns directly, and the record view (:meth:`Trace.records`) is the
convenient API for everything else.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = ["BranchRecord", "Trace"]


class BranchRecord(NamedTuple):
    """One dynamic conditional branch.

    Attributes:
        pc: branch instruction address.
        taken: resolved direction (True = taken).
        inst_count: instructions executed since the previous record,
            including this branch (>= 1).
    """

    pc: int
    taken: bool
    inst_count: int = 1


class Trace:
    """A named, immutable-by-convention sequence of branch records.

    Construct either from columns (fast path used by the generators) or
    from records via :meth:`from_records`.  The constructor copies its
    columns into the packed types (a buffer copy when a column already
    has them) and refuses a pc outside ``[0, 2**64)``.  Nothing mutates
    a trace after construction: ``total_instructions`` is summed once
    here, and :meth:`repro.sim.fast.arrays.TraceArrays.from_trace`
    memoizes on the trace's identity.
    """

    __slots__ = ("name", "pcs", "takens", "insts", "total_instructions")

    def __init__(
        self,
        name: str,
        pcs: Sequence[int],
        takens: Sequence[int],
        insts: Sequence[int],
    ) -> None:
        if not (len(pcs) == len(takens) == len(insts)):
            raise ValueError(
                "column length mismatch: "
                f"pcs={len(pcs)} takens={len(takens)} insts={len(insts)}"
            )
        self.name = name
        try:
            self.pcs = array("Q", pcs)
        except OverflowError:
            for pc in pcs:
                if not 0 <= pc < 1 << 64:
                    raise ValueError(f"pc {pc:#x} does not fit in 64 bits") from None
            raise
        if isinstance(takens, (bytes, bytearray)) and not takens.translate(
            None, b"\x00\x01"
        ):
            # Already 0/1 bytes (the trace reader's column): copy as is.
            self.takens = bytearray(takens)
        else:
            self.takens = bytearray(int(bool(t)) for t in takens)
        try:
            self.insts = array("B", insts)
        except OverflowError:
            self.insts = array("Q", insts)
        #: Total instruction count covered by the trace.
        self.total_instructions = sum(self.insts)

    @classmethod
    def from_records(cls, name: str, records: Iterable[BranchRecord]) -> "Trace":
        """Build a trace from an iterable of :class:`BranchRecord`."""
        pcs: list[int] = []
        takens = bytearray()
        insts: list[int] = []
        for pc, taken, inst_count in records:
            if inst_count < 1:
                raise ValueError(f"inst_count must be >= 1, got {inst_count}")
            pcs.append(pc)
            takens.append(1 if taken else 0)
            insts.append(inst_count)
        return cls(name, pcs, takens, insts)

    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self) -> Iterator[BranchRecord]:
        return self.records()

    def records(self) -> Iterator[BranchRecord]:
        """Iterate the trace as :class:`BranchRecord` tuples."""
        for pc, taken, inst in zip(self.pcs, self.takens, self.insts):
            yield BranchRecord(pc, bool(taken), inst)

    def record(self, index: int) -> BranchRecord:
        """Random access to a single record."""
        return BranchRecord(self.pcs[index], bool(self.takens[index]), self.insts[index])

    @property
    def taken_count(self) -> int:
        """Number of taken branches."""
        return sum(self.takens)

    def head(self, n_branches: int) -> "Trace":
        """A new trace containing the first ``n_branches`` records."""
        if n_branches < 0:
            raise ValueError(f"n_branches must be non-negative, got {n_branches}")
        return Trace(
            self.name,
            self.pcs[:n_branches],
            self.takens[:n_branches],
            self.insts[:n_branches],
        )

    def concat(self, other: "Trace", name: str | None = None) -> "Trace":
        """A new trace that is this trace followed by ``other``."""
        return Trace.join(
            name if name is not None else f"{self.name}+{other.name}",
            (self, other),
        )

    @classmethod
    def join(cls, name: str, traces: Iterable["Trace"]) -> "Trace":
        """One trace holding ``traces`` back to back, column by column."""
        traces = list(traces)
        wide = any(trace.insts.typecode != "B" for trace in traces)
        pcs = array("Q")
        takens = bytearray()
        insts = array("Q" if wide else "B")
        for trace in traces:
            pcs += trace.pcs
            takens += trace.takens
            insts += array(insts.typecode, trace.insts)
        return cls(name, pcs, takens, insts)

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, branches={len(self)})"
