"""RPR004 — kernel parity: marked twin regions must change together.

The fast backend ships each sequential inner loop in two translations —
the reference Python kernels (``fast/tage.py``, ``fast/gehl.py``) and
an embedded-C mirror inside ``fast/compiled.py``.  The differential
suites prove bit-identity *when they run*; this rule moves the guard
before the tests: editing one translation without touching its twin
fails ``repro lint`` instantly, with a message naming every stale
side.

Mechanics — the marker convention (documented in the kernel modules;
angle-bracket placeholders here keep these examples from reading as
real markers, which are matched on raw source lines):

.. code-block:: python

    # repro: parity-begin <group>/<side> fingerprint=<8 hex digits>
    ...kernel body...
    # repro: parity-end <group>/<side>

Because markers are matched on **raw source lines**, not syntax, the
same convention works as a Python comment and inside the embedded C
string (``/* repro: parity-begin <group>/<side> ... */``).

Every side of a group records the *same* fingerprint: the CRC-32 of all
sides' normalized contents (lines stripped of indentation and blanks,
sides concatenated in side-name order).  Changing any side therefore
invalidates the fingerprint recorded on **every** side — the author
must visit each twin, re-verify the translation (run the differential
suite!), and stamp the new value printed in the finding message.
Normalization makes pure reformatting (indentation, blank lines)
fingerprint-neutral; any token change is not.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.finding import Finding
from repro.analysis.rules.base import ProjectRule
from repro.analysis.source import SourceFile

__all__ = ["ParityRule", "group_fingerprint"]

_MARKER_RE = re.compile(
    r"repro:\s*parity-(?P<kind>begin|end)\s+"
    r"(?P<group>[A-Za-z0-9_.\-]+)/(?P<side>[A-Za-z0-9_.\-]+)"
    r"(?:\s+fingerprint=(?P<fingerprint>[0-9a-f]{8}))?"
)


@dataclass
class _Region:
    group: str
    side: str
    fingerprint: str | None
    sf: SourceFile
    begin_line: int
    end_line: int | None = None

    @property
    def content(self) -> str:
        """Normalized region body: stripped lines, blanks dropped."""
        if self.end_line is None:
            return ""
        body = self.sf.lines[self.begin_line:self.end_line - 1]
        return "\n".join(line.strip() for line in body if line.strip())


def group_fingerprint(sides: dict[str, str]) -> str:
    """CRC-32 hex8 over ``side-name NUL content NUL`` in side-name order."""
    crc = 0
    for side in sorted(sides):
        crc = zlib.crc32(side.encode(), crc)
        crc = zlib.crc32(b"\x00", crc)
        crc = zlib.crc32(sides[side].encode(), crc)
        crc = zlib.crc32(b"\x00", crc)
    return format(crc & 0xFFFFFFFF, "08x")


class ParityRule(ProjectRule):
    rule_id = "RPR004"
    name = "kernel-parity"
    description = (
        "parity-marked kernel regions (pure/C translations) must be "
        "updated together, re-stamping the shared fingerprint"
    )

    def check_project(self, files: list[SourceFile]) -> Iterator[Finding]:
        regions: list[_Region] = []
        for sf in files:
            scan = self._scan_file(sf, regions)
            yield from scan
        groups: dict[str, list[_Region]] = {}
        for region in regions:
            if region.end_line is not None:
                groups.setdefault(region.group, []).append(region)
        for group_name in sorted(groups):
            yield from self._check_group(group_name, groups[group_name])

    # -- marker scanning -----------------------------------------------------

    def _scan_file(
        self, sf: SourceFile, regions: list[_Region]
    ) -> Iterator[Finding]:
        open_regions: dict[tuple[str, str], _Region] = {}
        for number, line in enumerate(sf.lines, start=1):
            match = _MARKER_RE.search(line)
            if match is None:
                continue
            key = (match["group"], match["side"])
            label = f"{match['group']}/{match['side']}"
            if match["kind"] == "begin":
                if key in open_regions:
                    yield self.finding(
                        sf, number, 0,
                        f"parity-begin {label} repeated before its "
                        "parity-end (markers cannot nest)",
                    )
                    continue
                if match["fingerprint"] is None:
                    yield self.finding(
                        sf, number, 0,
                        f"parity-begin {label} is missing its "
                        "fingerprint=<8 hex> field",
                    )
                region = _Region(
                    group=match["group"], side=match["side"],
                    fingerprint=match["fingerprint"], sf=sf, begin_line=number,
                )
                open_regions[key] = region
                regions.append(region)
            else:
                region = open_regions.pop(key, None)
                if region is None:
                    yield self.finding(
                        sf, number, 0,
                        f"parity-end {label} without a matching parity-begin",
                    )
                else:
                    region.end_line = number
        for region in open_regions.values():
            yield self.finding(
                sf, region.begin_line, 0,
                f"parity-begin {region.group}/{region.side} is never closed "
                "by a parity-end",
            )

    # -- group fingerprint check ---------------------------------------------

    def _check_group(
        self, group_name: str, regions: list[_Region]
    ) -> Iterator[Finding]:
        by_side: dict[str, _Region] = {}
        for region in regions:
            if region.side in by_side:
                other = by_side[region.side]
                yield self.finding(
                    region.sf, region.begin_line, 0,
                    f"parity side {group_name}/{region.side} is defined "
                    f"twice (also at {other.sf.rel}:{other.begin_line})",
                )
                continue
            by_side[region.side] = region
        if len(by_side) < 2:
            only = next(iter(by_side.values()), None)
            if only is not None:
                yield self.finding(
                    only.sf, only.begin_line, 0,
                    f"parity group '{group_name}' has a single side "
                    f"('{only.side}') — parity needs at least two "
                    "translations to compare",
                )
            return
        expected = group_fingerprint(
            {side: region.content for side, region in by_side.items()}
        )
        for side in sorted(by_side):
            region = by_side[side]
            if region.fingerprint is None or region.fingerprint == expected:
                continue
            yield self.finding(
                region.sf, region.begin_line, 0,
                f"parity group '{group_name}' changed: side '{side}' records "
                f"fingerprint={region.fingerprint} but the group's content "
                f"fingerprint is {expected} — update every translation "
                "together, re-run the differential suite, then stamp "
                f"fingerprint={expected} on all "
                f"{len(by_side)} sides",
            )
