"""In-memory trace model.

A trace is a sequence of conditional-branch records.  Each record carries
the branch PC, the resolved direction and the number of instructions
executed since the previous record (including the branch itself), which is
what lets the simulator report Mispredictions Per Kilo-Instruction (MPKI)
exactly as the paper does.

For simulation speed the :class:`Trace` stores columns (``pcs``,
``takens``, ``insts``) rather than an array of objects; the inner loop of
:func:`repro.sim.engine.simulate` iterates the columns directly while the
record view (:meth:`Trace.records`) is the convenient API for everything
else.
"""

from __future__ import annotations

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
    from records via :meth:`from_records`.  Nothing mutates a trace
    after construction: ``total_instructions`` is summed once here, and
    :meth:`repro.sim.fast.arrays.TraceArrays.from_trace` memoizes on
    the trace's identity.
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
        self.pcs = list(pcs)
        if isinstance(takens, (bytes, bytearray)) and not takens.translate(
            None, b"\x00\x01"
        ):
            # Already 0/1 bytes (the trace reader's column): copy as is.
            self.takens = bytearray(takens)
        else:
            self.takens = bytearray(int(bool(t)) for t in takens)
        self.insts = list(insts)
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
        return Trace(
            name if name is not None else f"{self.name}+{other.name}",
            self.pcs + other.pcs,
            bytes(self.takens) + bytes(other.takens),
            self.insts + other.insts,
        )

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, branches={len(self)})"
