#!/usr/bin/env python3
"""Bench-trajectory guard: fail CI on machine-relative perf regressions.

Compares freshly measured ``BENCH_*.json`` records (written by the perf
benches with ``REPRO_BENCH_RECORDS=<scratch dir>``) against the
committed baselines in ``benchmarks/records/``.  Each record names its
compared metric in an optional ``"metric"`` field (default
``"speedup"``): the fast-backend benches compare the reference/fast
*speedup ratio*, the serving bench compares served-vs-offline
*relative throughput* — in both cases a machine-relative ratio, because
absolute seconds vary with the CI machine while the ratio is the
property the implementation guarantees.

Usage::

    REPRO_BENCH_RECORDS=/tmp/fresh pytest benchmarks/test_bench_fast_engine.py ...
    python tools/check_bench_trajectory.py --fresh /tmp/fresh

Exit status 1 when any fresh metric falls more than ``--tolerance``
(default 30 %) below its committed baseline, or when a baseline has no
fresh measurement.  A fresh metric above :data:`STALE_FACTOR` times its
baseline passes but prints a ``stale baseline`` line: a baseline that
far below the code's real ratio would let a large regression through,
so it should be re-recorded (upwards only).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "records"

#: Metric compared when a record carries no ``"metric"`` field.
DEFAULT_METRIC = "speedup"

#: Fresh/baseline ratio above which a baseline is reported stale.
STALE_FACTOR = 2.0


class RecordLoadError(RuntimeError):
    """A BENCH_*.json record could not be read or is malformed."""


def metric_name(payload: dict) -> str:
    """The record's compared-metric field name (``"metric"`` override)."""
    return payload.get("metric", DEFAULT_METRIC)


def load_records(root: Path) -> dict[str, dict]:
    """All ``BENCH_*.json`` records under ``root``, keyed by file name.

    Raises:
        RecordLoadError: for an unreadable/unparseable record file, or a
            record whose compared metric (the field named by its
            ``"metric"`` entry, default ``"speedup"``) is missing or
            non-numeric — with the offending path in the message,
            instead of a stack trace.
    """
    records = {}
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            with path.open() as fh:
                payload = json.load(fh)
        except OSError as error:
            raise RecordLoadError(f"cannot read record {path}: {error}") from error
        except json.JSONDecodeError as error:
            raise RecordLoadError(
                f"malformed record {path}: not valid JSON ({error})"
            ) from error
        if not isinstance(payload, dict):
            raise RecordLoadError(
                f"malformed record {path}: top level must be a JSON object"
            )
        metric = metric_name(payload)
        if not isinstance(metric, str) or not metric:
            raise RecordLoadError(
                f"malformed record {path}: 'metric' must be a field name"
            )
        value = payload.get(metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise RecordLoadError(
                f"malformed record {path}: missing a numeric {metric!r} field"
            )
        records[path.name] = payload
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True, type=Path,
                        help="directory holding the freshly measured BENCH_*.json")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help=f"committed baseline records (default {DEFAULT_BASELINE})")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional metric drop (default 0.30)")
    args = parser.parse_args(argv)

    if not 0 <= args.tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")
    try:
        baselines = load_records(args.baseline) if args.baseline.is_dir() else {}
        fresh = load_records(args.fresh) if args.fresh.is_dir() else {}
    except RecordLoadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if not baselines:
        print(
            f"error: no BENCH_*.json baselines under {args.baseline} "
            "(missing or empty directory - run the perf benches and commit "
            "their records first)",
            file=sys.stderr,
        )
        return 1

    failures = []
    stale = []
    print(f"{'record':<28} {'metric':<22} {'baseline':>9} {'fresh':>9} "
          f"{'floor':>9}  verdict")
    for name, baseline in baselines.items():
        metric = metric_name(baseline)
        base_value = baseline[metric]
        floor = base_value * (1 - args.tolerance)
        measured = fresh.get(name)
        if measured is None:
            failures.append(f"{name}: no fresh measurement under {args.fresh}")
            print(f"{name:<28} {metric:<22} {base_value:>9.2f} {'-':>9} "
                  f"{floor:>9.2f}  MISSING")
            continue
        fresh_value = measured.get(metric)
        if not isinstance(fresh_value, (int, float)) or isinstance(fresh_value, bool):
            failures.append(
                f"{name}: fresh record has no numeric {metric!r} field "
                f"(baseline compares it)"
            )
            print(f"{name:<28} {metric:<22} {base_value:>9.2f} {'-':>9} "
                  f"{floor:>9.2f}  MALFORMED")
            continue
        ok = fresh_value >= floor
        print(f"{name:<28} {metric:<22} {base_value:>9.2f} {fresh_value:>9.2f} "
              f"{floor:>9.2f}  {'ok' if ok else 'REGRESSION'}")
        if fresh_value > STALE_FACTOR * base_value:
            stale.append(
                f"stale baseline: {name}: {metric} {fresh_value:.2f} is over "
                f"{STALE_FACTOR:g}x its baseline {base_value:.2f}; re-record it"
            )
        if not ok:
            failures.append(
                f"{name}: {metric} {fresh_value:.2f} fell below "
                f"{floor:.2f} (baseline {base_value:.2f} - {args.tolerance:.0%})"
            )
    if stale:
        print()
        for line in stale:
            print(line)
    if failures:
        print("\nbench trajectory regression:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(baselines)} record(s) within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
