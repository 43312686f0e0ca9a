"""The repository's benchmark: one workload, one run, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads:

``paper-cold``
    ``repro paper --quick --backend fast --workers 2`` on an empty
    result cache (trace synthesis, planes, 34 sweeps with their pools,
    cache and journal writes).
``sweep-replay``
    A mixed fast-backend ``repro sweep --workers 1`` over RTRC files
    generated from the seed (kernels, planes, the trace reader).
``serve-closed``
    ``repro serve`` driven in a closed loop by two clients replaying a
    generated stream (protocol and the per-tenant stepper).

With ``--trace 0`` the run measures with tracing off — for at least
``--seconds``, and until it has enough samples taken while the host's
hypervisor stole little CPU time (``harness.quiet_samples``) — and
reports the end-to-end metrics (see ``BENCHMARK.json``); with
``--trace 1`` it takes one untraced and one traced sample and reports
the per-layer split.  Every sample's outputs are checked; failed
operations are counted against attempted ones.  The last line of
standard output is the JSON result; progress goes to standard error.
Without the program's source next to it the run fails before printing
a result.

Tests of the harness itself: ``python3 -m pytest perfbench/tests``.
The steadiness report: ``python3 perfbench/steady.py``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from harness import SRC, WORK, BenchmarkError, emit, log, prepare, require_source

WORKLOADS = ("paper-cold", "sweep-replay", "serve-closed")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_source()
        sys.path.insert(0, str(SRC))
        runs_dir = WORK / "runs" / str(os.getpid())
        shutil.rmtree(runs_dir, ignore_errors=True)  # left by a killed run
        runs_dir.mkdir(parents=True)
        try:
            prepare(runs_dir)
            if args.workload == "serve-closed":
                from serving import run_serve

                tally, metrics = run_serve(args.seed, args.seconds,
                                           bool(args.trace), runs_dir)
            else:
                from offline import run_offline

                tally, metrics = run_offline(args.workload, args.seed,
                                             args.seconds, bool(args.trace),
                                             runs_dir)
        finally:
            shutil.rmtree(runs_dir, ignore_errors=True)
    except BenchmarkError as error:
        log(f"benchmark failed: {error}")
        return 2
    emit(tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
