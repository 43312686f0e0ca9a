"""Steadiness report: are two sets of runs of the same code alike?

    python3 perfbench/steady.py --workload sweep-replay --runs 5

Runs ``run.py`` ``2 x --runs`` times per workload, alternating set A and
set B (every run on its own seed), then prints for each end-to-end
metric and set (and for both sets together) the median and quartiles,
the spread (quartile distance over the median) and the shift of B's
median from A's, next to the metric's bound from ``BENCHMARK.json``,
and how long a run took.  A spread above a third of the
bound, or a shift beyond the bound, is flagged.  The machine's state —
CPUs, load average, Python and NumPy versions and the compiled-kernel
provider — is printed with the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import harness

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def environment() -> str:
    import numpy

    runs_dir = harness.WORK / "runs" / f"steady-{os.getpid()}"
    runs_dir.mkdir(parents=True)
    try:
        sandbox = harness.Sandbox(runs_dir, "probe")
        _, ready = harness.run_child("ready", {}, sandbox)
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
    load = " ".join(f"{value:.2f}" for value in os.getloadavg())
    return (f"nproc {os.cpu_count()}  load {load}  python "
            f"{platform.python_version()}  numpy {numpy.__version__}  "
            f"provider {ready['provider']}")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, str(harness.PERFBENCH / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=300,
    )
    if result.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{result.stderr}")
    outcome = json.loads(result.stdout.strip().splitlines()[-1])
    if not outcome["correct"]:
        print(f"  {workload} seed {seed}: {outcome['failed']} of "
              f"{outcome['attempted']} operations failed")
    values = {name: metric["value"] for name, metric in outcome["metrics"].items()}
    values["run_s"] = time.monotonic() - started
    return values


def report(workload: str, sets: dict[str, list[dict]]) -> None:
    every = sets["A"] + sets["B"]
    durations = [run["run_s"] for run in every]
    print(f"\n{workload}: {len(sets['A'])} runs per set; a run took "
          f"{sum(durations) / len(durations):.0f} s on average, "
          f"{max(durations):.0f} s at most")
    print(f"  {'metric':16s} {'set':3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'shift':>7s} {'bound':>6s}")
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = {}
        for label, runs in [*sets.items(), ("all", every)]:
            values = [run[name] for run in runs]
            q1, q2, q3 = harness.quartiles(values)
            medians[label] = q2
            spread = (q3 - q1) / q2
            shift = ""
            if label == "B":
                worse = medians["B"] / medians["A"] - 1
                if metric["better"] == "higher":
                    worse = -worse
                shift = f"{worse:+7.1%}" + ("!" if worse > bound else "")
            flag = "!" if spread > bound / 3 and name != "setup_s" else " "
            print(f"  {name:16s} {label:3s} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:6.1%}{flag} {shift:>7s} {bound:6.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (default 5)")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    harness.require_source()
    print(environment())
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        seed = args.first_seed
        for _ in range(args.runs):
            for label in ("A", "B"):
                sets[label].append(one_run(workload, seed, args.seconds))
                seed += 1
        report(workload, sets)
    print(f"\n{environment()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
