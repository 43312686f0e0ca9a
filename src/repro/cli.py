"""Command-line interface.

Usage (``python -m repro <command>``):

* ``run-trace NAME`` — simulate one CBP trace with confidence
  observation and print the per-class table.
* ``run-suite SUITE`` — simulate a whole suite on one preset and print
  the Table-2-style three-level summary.
* ``sweep`` — expand a predictor × estimator × trace grid, execute it
  through the fault-tolerant broker/worker executor with on-disk result
  caching and a crash-safe run journal, and print the tidy result table
  (see :mod:`repro.sweep`).  Interrupting with Ctrl-C checkpoints the
  journal and exits 130; ``--resume <run-id>`` continues bit-identically
  (only unfinished jobs execute).  Quarantined jobs produce a partial
  table, a report, and exit code 3.
* ``paper`` — run the declarative artifact registry (every paper
  table/figure plus the beyond-paper scenarios) and emit
  ``PAPER_RESULTS.md`` + ``paper_results.json`` with repro-vs-paper
  deltas (see :mod:`repro.artifacts`); ``--run-id ID`` + ``--resume``
  continue an interrupted invocation.
* ``gen-trace NAME PATH`` — generate a named trace and write it to a
  trace file (gzip if the path ends in ``.gz``).
* ``inspect PATH`` — print the statistics of a trace file.
* ``trace`` — generate/inspect/convert traces through the pluggable
  source registry: ``--source NAME`` (any registered source or
  ``file:<path>``) or ``--input PATH``, with ``--stats`` and
  ``--export PATH`` (see :mod:`repro.traces.sources`).
* ``list-traces`` — show the registered trace names (CBP suites and
  the scenario-zoo trace sources).
* ``capability`` — report, per backend, whether one (predictor,
  estimator) cell is supported, which compiled kernel provider would
  run it under the current ``REPRO_COMPILED_PROVIDER`` setting, and
  whether it can join a lockstep batch (see
  :meth:`repro.sim.backends.Backend.capability`).
* ``serve`` — run the multi-tenant confidence server until SIGINT or
  SIGTERM, then drain gracefully (see :mod:`repro.serve`).
* ``drive`` — load-drive a running server with open- or closed-loop
  traffic generated from any registered trace source; prints latency
  percentiles and the throughput curve, optionally verifying served
  decisions bit-identical to the offline engines (``--verify``) and
  recording the report as JSON (``--record``).

The CLI is a thin veneer over the library; each command maps to one or
two public calls.  Only the parser's constant tables load with this
module: each handler imports what its command uses, so ``repro serve``
never loads the sweep layer and ``repro list-traces`` builds no
predictor.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.predictors.tage.config import (
    AUTOMATON_PROBABILISTIC,
    AUTOMATON_STANDARD,
    SIZES,
)
from repro.sim.backends import BACKENDS, DEFAULT_BACKEND
from repro.traces.names import CBP1_TRACE_NAMES, CBP2_TRACE_NAMES, SUITES

if TYPE_CHECKING:
    from repro.serve.server import ConfidenceServer, ServerConfig
    from repro.sweep.broker import SweepInterrupted

__all__ = ["main", "build_parser"]


def _get_trace(name: str, n_branches: int):
    from repro.sim.runner import get_trace
    from repro.traces.sources.base import MissingTraceFileError

    try:
        return get_trace(name, n_branches)
    except KeyError:
        raise SystemExit(f"unknown trace {name!r}; try `list-traces`") from None
    except MissingTraceFileError as error:
        raise SystemExit(str(error)) from None


def _add_predictor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", choices=SIZES, default="64K",
                        help="TAGE preset (paper Table 1)")
    parser.add_argument("--automaton", choices=(AUTOMATON_STANDARD, AUTOMATON_PROBABILISTIC),
                        default=AUTOMATON_STANDARD,
                        help="3-bit counter update rule (paper §6)")
    parser.add_argument("--sat-prob-log2", type=int, default=None, metavar="K",
                        help="saturation probability 1/2^K (probabilistic "
                             "automaton only; default 7)")
    parser.add_argument("--branches", type=int, default=50_000,
                        help="dynamic branches per trace")
    _add_backend_arg(parser)


def _add_backend_arg(parser: argparse.ArgumentParser,
                     default: str = DEFAULT_BACKEND) -> None:
    parser.add_argument("--backend", choices=BACKENDS, default=default,
                        help="simulation engine (default %(default)s); 'fast' "
                             "runs the whole model zoo (every predictor/"
                             "estimator kind, adaptive Sec-6.2 control "
                             "included) bit-exactly and falls back to "
                             "'reference' (with a warning) only for "
                             "subclassed components or >62-bit histories")


def build_parser() -> argparse.ArgumentParser:
    from repro.artifacts.spec import Scale
    from repro.sweep.cache import default_cache_dir

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Storage-free TAGE confidence estimation (Seznec, HPCA 2011) reproduction",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_trace_cmd = commands.add_parser("run-trace", help="simulate one trace")
    run_trace_cmd.add_argument("name")
    _add_predictor_args(run_trace_cmd)

    suite_cmd = commands.add_parser("run-suite", help="simulate a whole suite")
    suite_cmd.add_argument("suite", choices=SUITES)
    _add_predictor_args(suite_cmd)

    sweep_cmd = commands.add_parser(
        "sweep",
        help="run a predictor x estimator x trace grid in parallel with caching",
    )
    sweep_cmd.add_argument(
        "--predictors", nargs="+", metavar="P",
        default=["tage-16K", "tage-64K", "gshare"],
        help="predictor axis: tage-<SIZE>[-prob], gshare, bimodal, "
             "perceptron, ogehl, local",
    )
    sweep_cmd.add_argument(
        "--estimators", nargs="+", metavar="E",
        default=["tage", "jrs"],
        help="estimator axis: tage (storage-free observation), jrs, ejrs, self",
    )
    sweep_cmd.add_argument(
        "--traces", nargs="+", metavar="T", default=None,
        help="trace axis (any CBP-1/CBP-2 names); default: a 4-trace mix",
    )
    sweep_cmd.add_argument(
        "--suite", choices=SUITES, default=None,
        help="use a whole suite as the trace axis instead of --traces",
    )
    sweep_cmd.add_argument("--branches", type=int, default=8_000,
                           help="dynamic branches per trace")
    sweep_cmd.add_argument("--warmup", type=int, default=0,
                           help="branches excluded from class accounting")
    sweep_cmd.add_argument("--adaptive", action="store_true",
                           help="attach the Sec-6.2 adaptive saturation "
                                "controller to TAGE-observation cells "
                                "(forces the probabilistic automaton)")
    sweep_cmd.add_argument("--target-mkp", type=float, default=None,
                           metavar="MKP",
                           help="adaptive controller high-confidence "
                                "misprediction target (default 10; "
                                "needs --adaptive)")
    sweep_cmd.add_argument("--workers", type=int, default=None, metavar="N",
                           help="worker processes (default: one per CPU, min 2)")
    sweep_cmd.add_argument("--seed", type=int, default=None,
                           help="base seed for per-job RNG derivation")
    sweep_cmd.add_argument("--cache-dir", default=None,
                           help=f"result cache location (default {default_cache_dir()})")
    sweep_cmd.add_argument("--no-cache", action="store_true",
                           help="disable the on-disk result cache")
    _add_backend_arg(sweep_cmd)
    sweep_cmd.add_argument("--tsv", action="store_true",
                           help="print the raw tidy table instead of the ASCII table")
    sweep_cmd.add_argument("--run-id", default=None, metavar="ID",
                           help="name this run's journal (default: "
                                "<spec-hash>-<random>); an interrupted run "
                                "prints the id to resume with")
    sweep_cmd.add_argument("--resume", default=None, metavar="RUN_ID",
                           help="continue an interrupted run from its journal: "
                                "completed jobs are served bit-identically "
                                "from the cache, only the rest execute "
                                "(the grid axes come from the journal)")
    sweep_cmd.add_argument("--max-retries", type=int, default=2, metavar="N",
                           help="transient-failure retries per job (crash, "
                                "stall, flaky I/O) before quarantine")
    sweep_cmd.add_argument("--heartbeat-timeout", type=float, default=30.0,
                           metavar="SEC",
                           help="seconds of worker silence before the broker "
                                "re-dispatches its job as a straggler")
    sweep_cmd.add_argument("--faults", default=None, metavar="PLAN",
                           help="deterministic fault-injection plan, e.g. "
                                "'kill@3;flaky@1:2;corrupt@4' (default: "
                                "$REPRO_FAULTS; testing/chaos only)")

    paper_cmd = commands.add_parser(
        "paper",
        help="one-command paper reproduction: run every registered "
             "artifact and write PAPER_RESULTS.md + paper_results.json",
    )
    paper_cmd.add_argument(
        "--quick", action="store_true",
        help=f"CI scale ({Scale.quick().n_branches} branches/trace instead "
             f"of {Scale.full().n_branches})",
    )
    paper_cmd.add_argument(
        "--only", nargs="+", metavar="KEY", default=None,
        help="build a subset of artifacts (case-insensitive keys; "
             "see --list)",
    )
    paper_cmd.add_argument(
        "--list", action="store_true", dest="list_artifacts",
        help="print the artifact registry and exit",
    )
    paper_cmd.add_argument(
        "--branches", type=int, default=None,
        help="explicit dynamic branches per trace (overrides --quick)",
    )
    paper_cmd.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="sweep worker processes (default: one per CPU, min 2)",
    )
    # Reports are byte-identical across backends; fast is the quick one.
    _add_backend_arg(paper_cmd, default="fast")
    paper_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"sweep result cache (default {default_cache_dir()}); TAGE "
             "planes are computed in memory, never stored",
    )
    paper_cmd.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache (every job simulates)",
    )
    paper_cmd.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for PAPER_RESULTS.md and paper_results.json",
    )
    paper_cmd.add_argument(
        "--require-cached", action="store_true",
        help="fail unless every sweep job was served from the cache; the "
             "beyond-paper app models always re-run in-process (cheap, "
             "deterministic).  CI uses this to prove re-run determinism",
    )
    paper_cmd.add_argument(
        "--run-id", default=None, metavar="ID",
        help="name the invocation's one journal, <cache>/runs/<ID>.jsonl "
             "(default: <plan-hash>-<random>); required for --resume",
    )
    paper_cmd.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted `repro paper --run-id ID` "
             "invocation (same --only/--quick/--branches): journaled jobs "
             "are served from the cache, only the rest execute",
    )

    gen_cmd = commands.add_parser("gen-trace", help="write a trace file")
    gen_cmd.add_argument("name")
    gen_cmd.add_argument("path")
    gen_cmd.add_argument("--branches", type=int, default=50_000)

    inspect_cmd = commands.add_parser("inspect", help="describe a trace file")
    inspect_cmd.add_argument("path")

    trace_cmd = commands.add_parser(
        "trace",
        help="generate, inspect or convert traces via the source registry",
    )
    trace_what = trace_cmd.add_mutually_exclusive_group(required=True)
    trace_what.add_argument(
        "--source", metavar="NAME",
        help="a registered trace source (CBP/zoo name, or file:<path>)",
    )
    trace_what.add_argument(
        "--input", metavar="PATH",
        help="an RTRC trace file to inspect/convert (plain or .gz)",
    )
    trace_what.add_argument(
        "--list", action="store_true", dest="list_sources",
        help="print the source registry and exit",
    )
    trace_cmd.add_argument("--branches", type=int, default=50_000,
                           help="dynamic branches to materialize from --source")
    trace_cmd.add_argument("--stats", action="store_true",
                           help="print the full trace statistics summary")
    trace_cmd.add_argument("--export", metavar="PATH", default=None,
                           help="write the trace to an RTRC file "
                                "(gzip if the path ends in .gz)")

    commands.add_parser("list-traces", help="list registered trace names")

    capability_cmd = commands.add_parser(
        "capability",
        help="report per-backend support (+ compiled/lockstep "
             "availability) for one predictor x estimator cell",
    )
    capability_cmd.add_argument(
        "--predictor", default="tage-64K",
        help="predictor token (tage-<SIZE>[-prob], gshare, bimodal, "
             "perceptron, ogehl, local)",
    )
    capability_cmd.add_argument(
        "--estimator", default="tage",
        help="estimator kind: tage, jrs, ejrs, self",
    )
    capability_cmd.add_argument(
        "--adaptive", action="store_true",
        help="attach the Sec-6.2 adaptive saturation controller",
    )

    lint_cmd = commands.add_parser(
        "lint",
        help="run the static invariant analyzers (determinism, spec-hash "
             "hygiene, fork/async safety, kernel parity, warning hygiene)",
    )
    lint_cmd.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to analyze (default: [tool.repro.lint] "
             "paths in pyproject.toml, else src/ and tools/)",
    )
    lint_cmd.add_argument(
        "--rules", nargs="+", metavar="RPRnnn", default=None,
        help="run only these rule IDs (default: all)",
    )
    lint_cmd.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="fmt", help="report format (default text)",
    )
    lint_cmd.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report here instead of stdout",
    )
    lint_cmd.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file of grandfathered findings "
             "(default: tools/lint_baseline.json when present)",
    )
    lint_cmd.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file (report every finding)",
    )
    lint_cmd.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    lint_cmd.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )

    serve_cmd = commands.add_parser(
        "serve",
        help="run the multi-tenant confidence server (SIGINT/SIGTERM drains)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=7421,
                           help="bind port; 0 picks a free port")
    serve_cmd.add_argument("--shards", type=int, default=4,
                           help="shard worker count (per-tenant serialization units)")
    serve_cmd.add_argument("--max-queue", type=int, default=64, metavar="N",
                           help="admitted-but-uncompleted requests per tenant "
                                "before explicit rejects")
    serve_cmd.add_argument("--timeout", type=float, default=5.0, metavar="SEC",
                           help="request deadline (queued or mid-frame stall)")
    serve_cmd.add_argument("--max-batch", type=int, default=8192, metavar="N",
                           help="records allowed per observe frame")

    drive_cmd = commands.add_parser(
        "drive",
        help="load-drive a running confidence server and report "
             "latency percentiles + the throughput curve",
    )
    drive_cmd.add_argument("--host", default="127.0.0.1")
    drive_cmd.add_argument("--port", type=int, default=7421)
    drive_cmd.add_argument("--trace", default="INT-1",
                           help="any registered trace name (CBP, zoo, file:<path>)")
    drive_cmd.add_argument("--branches", type=int, default=20_000,
                           help="dynamic branches replayed per client")
    drive_cmd.add_argument("--predictor", default="tage-16K",
                           help="predictor token (tage-<SIZE>[-prob], gshare, ...)")
    drive_cmd.add_argument("--estimator", default="tage",
                           help="estimator kind: tage, jrs, ejrs, self")
    drive_cmd.add_argument("--adaptive", action="store_true",
                           help="attach the Sec-6.2 adaptive controller")
    drive_cmd.add_argument("--target-mkp", type=float, default=None,
                           metavar="MKP",
                           help="adaptive controller high-confidence "
                                "misprediction target (default 10; "
                                "needs --adaptive)")
    drive_cmd.add_argument("--seed", type=int, default=None)
    drive_cmd.add_argument("--mode", choices=("closed", "open"), default="closed",
                           help="closed: N clients back-to-back (saturation "
                                "curve); open: fixed arrival rate")
    drive_cmd.add_argument("--clients", type=int, nargs="+", default=[1, 2, 4],
                           metavar="N",
                           help="closed-loop concurrency sweep (also the "
                                "connection count for open loop)")
    drive_cmd.add_argument("--rates", type=float, nargs="+", default=[50.0],
                           metavar="R",
                           help="open-loop arrival rates (batches/s)")
    drive_cmd.add_argument("--batch", type=int, default=256,
                           help="branches per observe request")
    drive_cmd.add_argument("--tenant-prefix", default="drive",
                           help="tenant namespace; a unique per-invocation "
                                "suffix is appended so repeated drives against "
                                "one server never re-attach to trained state")
    drive_cmd.add_argument("--connect-timeout", type=float, default=5.0,
                           metavar="SEC",
                           help="retry connecting this long (lets 'start "
                                "server, then drive' scripts race safely)")
    drive_cmd.add_argument("--retries", type=int, default=0, metavar="N",
                           help="closed-loop: re-send a REJECTED/TIMEOUT "
                                "batch (never applied server-side) up to N "
                                "times with capped backoff before counting "
                                "it as lost")
    drive_cmd.add_argument("--verify", action="store_true",
                           help="first check served decisions are bit-identical "
                                "to the offline reference replay of the same cell")
    drive_cmd.add_argument("--record", metavar="PATH", default=None,
                           help="write the drive report as JSON")
    return parser


def _preset(args) -> dict:
    """The TAGE preset keywords of a run-trace/run-suite invocation."""
    preset = {"size": args.size, "automaton": args.automaton}
    if args.sat_prob_log2 is not None:
        if args.automaton != AUTOMATON_PROBABILISTIC:
            # The standard automaton never reads K — reject instead of
            # silently printing the default run.
            raise SystemExit(
                "--sat-prob-log2 only has an effect with --automaton probabilistic"
            )
        preset["sat_prob_log2"] = args.sat_prob_log2
    return preset


def _target_mkp(args) -> dict:
    """``{"target_mkp": K}`` for an explicit ``--target-mkp K`` of a
    sweep/drive invocation, else ``{}`` (the spec's default target)."""
    if args.target_mkp is None:
        return {}
    if not args.adaptive:
        # Without the controller the target changes nothing but the
        # cache keys — reject instead of silently re-simulating.
        raise SystemExit("--target-mkp only has an effect with --adaptive")
    return {"target_mkp": args.target_mkp}


def _cmd_run_trace(args) -> int:
    from repro.sim.runner import run_trace

    preset = _preset(args)
    trace = _get_trace(args.name, args.branches)
    result = run_trace(trace, backend=args.backend, **preset)
    print(result.class_table())
    return 0


def _cmd_suite(args) -> int:
    from repro.sim.report import format_confidence_table
    from repro.sim.stats import summarize
    from repro.sweep.broker import SweepInterrupted
    from repro.sweep.executor import run_sweep
    from repro.sweep.spec import EstimatorSpec, ExperimentSpec, PredictorSpec

    spec = ExperimentSpec(
        name=f"cli-run-suite-{args.suite}",
        predictors=(PredictorSpec.of("tage", **_preset(args)),),
        estimators=(EstimatorSpec.of("tage"),),
        traces=_suite_trace_names(args.suite),
        n_branches=args.branches,
        backend=args.backend,
    )
    try:
        run = run_sweep(spec, workers=None)
    except SweepInterrupted as interrupted:
        return _report_interrupted(interrupted)
    if run.quarantined:
        # A summary over part of the suite would read as the whole one.
        raise SystemExit("; ".join(entry.describe() for entry in run.quarantined))
    results = run.table.simulation_results()
    for result in results:
        print(f"{result.trace_name:<16} {result.mpki:6.2f} misp/KI  {result.mkp:6.1f} MKP")
    summary = summarize(results)
    print()
    print(format_confidence_table(
        {(args.size, args.suite): summary},
        title="three-level summary (Pcov-MPcov (MPrate MKP))",
    ))
    return 0


#: Default trace axis for ``sweep``: one trace per behaviour family
#: (mixed, multimedia, server working set, noisy CBP-2).
_DEFAULT_SWEEP_TRACES = ("INT-1", "MM-1", "SERV-1", "300.twolf")


def _suite_trace_names(suite: str) -> tuple[str, ...]:
    return CBP1_TRACE_NAMES if suite == "CBP1" else CBP2_TRACE_NAMES


def _cmd_sweep(args) -> int:
    from repro.sweep.broker import SweepInterrupted
    from repro.sweep.cache import ResultCache
    from repro.sweep.executor import resume_sweep, run_sweep
    from repro.sweep.journal import JournalError
    from repro.sweep.spec import EstimatorSpec, ExperimentSpec, PredictorSpec
    from repro.traces.sources.base import (
        MissingTraceFileError,
        is_source_name,
        require_trace_file,
    )

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.resume is not None:
        # The journal carries the grid: axis flags are ignored on resume.
        if cache is None:
            raise SystemExit("--resume needs the result cache; drop --no-cache")
        try:
            run = resume_sweep(
                args.resume,
                cache=cache,
                workers=args.workers,
                progress=print,
                backend=args.backend,
                max_retries=args.max_retries,
                heartbeat_timeout=args.heartbeat_timeout,
                faults=args.faults,
            )
        except SweepInterrupted as interrupted:
            return _report_interrupted(interrupted)
        except (JournalError, ValueError) as error:
            raise SystemExit(str(error)) from None
        return _print_sweep(args, run, cache)

    try:
        predictors = tuple(PredictorSpec.parse(token) for token in args.predictors)
        estimators = tuple(EstimatorSpec.of(token) for token in args.estimators)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    target_mkp = _target_mkp(args)
    if args.suite is not None:
        if args.traces:
            raise SystemExit("--traces and --suite are mutually exclusive")
        traces = _suite_trace_names(args.suite)
    else:
        traces = tuple(args.traces) if args.traces else _DEFAULT_SWEEP_TRACES
    for name in traces:
        if (name not in CBP1_TRACE_NAMES and name not in CBP2_TRACE_NAMES
                and not is_source_name(name)):
            raise SystemExit(f"unknown trace {name!r}; try `list-traces`")
        try:
            require_trace_file(name)
        except MissingTraceFileError as error:
            raise SystemExit(str(error)) from None

    spec = ExperimentSpec(
        name="cli-sweep",
        predictors=predictors,
        estimators=estimators,
        traces=traces,
        n_branches=args.branches,
        warmup_branches=args.warmup,
        adaptive=args.adaptive,
        **target_mkp,
        seed=args.seed,
        backend=args.backend,
    )
    try:
        run = run_sweep(
            spec, workers=args.workers, cache=cache, progress=print,
            run_id=args.run_id,
            max_retries=args.max_retries,
            heartbeat_timeout=args.heartbeat_timeout,
            faults=args.faults,
        )
    except SweepInterrupted as interrupted:
        return _report_interrupted(interrupted)
    except (JournalError, ValueError) as error:
        raise SystemExit(str(error)) from None
    return _print_sweep(args, run, cache)


def _report_interrupted(interrupted: SweepInterrupted) -> int:
    """Checkpointed SIGINT/SIGTERM: print the resume hint, exit 130."""
    print(f"\ninterrupted: {interrupted.n_done} job(s) done, "
          f"{interrupted.n_pending} pending (journal checkpointed)")
    if interrupted.run_id:
        print(f"resume with: repro sweep --resume {interrupted.run_id}")
    return 130


def _print_sweep(args, run, cache) -> int:
    from repro.sim.report import render_table

    if args.tsv:
        print(run.table.to_tsv())
    else:
        rows = []
        for row in run.table.rows():
            rows.append([
                row["trace"], row["predictor"], row["estimator"],
                f"{row['mpki']:.2f}", f"{row['mkp']:.1f}",
                f"{row['accuracy']:.4f}",
                f"{row['estimator_bits']}",
                "-" if row["spec"] is None else f"{row['spec']:.3f}",
                "-" if row["pvn"] is None else f"{row['pvn']:.3f}",
            ])
        print()
        print(render_table(
            ("trace", "predictor", "estimator", "misp/KI", "MKP",
             "accuracy", "est.bits", "SPEC", "PVN"),
            rows,
            title=f"sweep {run.spec.spec_hash()} - {len(run.table)} jobs",
        ))
    if cache is not None:
        print(f"cache: {cache.root} ({len(cache)} entries)")
    if run.quarantined:
        # Partial-result report: the table above is every healthy cell;
        # these are the cells the run gave up on.
        print(f"\nQUARANTINED ({len(run.quarantined)} job(s)):")
        for entry in run.quarantined:
            print(f"  {entry.describe()}")
        if run.run_id:
            print(f"re-attempt with: repro sweep --resume {run.run_id}")
        return 3
    return 0


def _cmd_paper(args) -> int:
    from repro.artifacts.registry import REGISTRY, UnknownArtifactError
    from repro.artifacts.runner import (
        ArtifactValidationError,
        run_paper,
        write_reports,
    )
    from repro.artifacts.spec import Scale
    from repro.sim.report import render_table
    from repro.sweep.broker import SweepInterrupted
    from repro.sweep.cache import ResultCache
    from repro.sweep.journal import JournalError

    if args.list_artifacts:
        rows = [
            [spec.key, spec.paper_element, spec.kind, spec.title]
            for spec in REGISTRY.values()
        ]
        print(render_table(("artifact", "paper element", "kind", "title"), rows,
                           title=f"artifact registry ({len(rows)} entries)"))
        return 0
    if args.no_cache and args.require_cached:
        raise SystemExit("--require-cached needs the cache; drop --no-cache")
    if args.resume and args.run_id is None:
        raise SystemExit("--resume needs --run-id (the id of the "
                         "interrupted invocation)")
    if args.resume and args.no_cache:
        raise SystemExit("--resume needs the result cache; drop --no-cache")
    if args.branches is not None:
        try:
            scale = Scale(args.branches)
        except ValueError as error:
            raise SystemExit(str(error)) from None
    else:
        scale = Scale.quick() if args.quick else Scale.full()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    try:
        run = run_paper(
            args.only,
            scale=scale,
            workers=args.workers,
            cache=cache,
            backend=args.backend,
            progress=print,
            run_id=args.run_id,
            resume=args.resume,
        )
    except SweepInterrupted as interrupted:
        print(f"\ninterrupted: {interrupted.n_done} job(s) done, "
              f"{interrupted.n_pending} pending (journal checkpointed)")
        if interrupted.run_id:
            print(f"resume with: repro paper --run-id {interrupted.run_id} "
                  "--resume")
        return 130
    except (UnknownArtifactError, ArtifactValidationError, ValueError,
            JournalError) as error:
        raise SystemExit(str(error)) from None
    md_path, json_path = write_reports(run, args.out)
    print(f"wrote {md_path} and {json_path}")
    if cache is not None:
        print(f"cache: {cache.root} ({len(cache)} entries)")
    if args.require_cached and not run.fully_cached:
        raise SystemExit(
            f"--require-cached: {run.n_executed} of {run.n_jobs} sweep jobs "
            "were simulated instead of served from the cache"
        )
    return 0


def _cmd_gen_trace(args) -> int:
    from repro.traces.io import write_trace

    trace = _get_trace(args.name, args.branches)
    write_trace(trace, args.path)
    print(f"wrote {len(trace)} records to {args.path}")
    return 0


def _cmd_inspect(args) -> int:
    from repro.traces.io import read_trace
    from repro.traces.stats import analyze_trace

    trace = read_trace(args.path)
    print(analyze_trace(trace).summary())
    return 0


def _cmd_trace(args) -> int:
    from repro.sim.report import render_table
    from repro.traces.io import TraceFormatError, read_trace, write_trace
    from repro.traces.sources.base import (
        FILE_PREFIX,
        MissingTraceFileError,
        get_source,
        is_source_name,
        source_names,
    )
    from repro.traces.stats import analyze_trace

    if args.list_sources:
        rows = [
            [name, get_source(name).spec_dict()["kind"], get_source(name).source_id()]
            for name in source_names()
        ]
        print(render_table(("source", "kind", "spec digest"), rows,
                           title=f"trace source registry ({len(rows)} entries); "
                                 f"{FILE_PREFIX}<path> replays an RTRC file"))
        return 0
    try:
        if args.input is not None:
            trace = read_trace(args.input)
            origin = args.input
        else:
            name = args.source
            if not is_source_name(name):
                # The CBP suites resolve through get_trace, not the registry.
                trace = _get_trace(name, args.branches)
            else:
                trace = get_source(name).generate(args.branches)
            origin = name
    except (TraceFormatError, MissingTraceFileError) as error:
        raise SystemExit(str(error)) from None
    print(f"{origin}: {len(trace)} branches, {trace.total_instructions} instructions")
    if args.stats or args.export is None:
        print(analyze_trace(trace).summary())
    if args.export is not None:
        write_trace(trace, args.export)
        print(f"wrote {len(trace)} records to {args.export}")
    return 0


def _cmd_list_traces(args) -> int:
    from repro.traces.sources.base import source_names

    print("CBP-1:", " ".join(CBP1_TRACE_NAMES))
    print("CBP-2:", " ".join(CBP2_TRACE_NAMES))
    print("sources:", " ".join(source_names()))
    return 0


def _cmd_capability(args) -> int:
    from repro.serve.state import SessionSpec
    from repro.sim.fast.compiled import provider_unavailable_reason
    from repro.sim.report import render_table

    try:
        spec = SessionSpec(tenant="cli", predictor=args.predictor,
                           estimator=args.estimator, adaptive=args.adaptive)
        reason = provider_unavailable_reason()
    except ValueError as error:
        raise SystemExit(str(error)) from None
    rows = []
    for backend in BACKENDS:
        capability = spec.capability(backend)
        rows.append([
            backend,
            "yes" if capability.supported else "no",
            "yes" if capability.compiled else "no",
            capability.compiled_provider or "-",
            "yes" if capability.lockstep else "no",
            capability.reason or ("-" if capability.fallback is None
                                  else f"falls back to {capability.fallback}"),
        ])
    print(render_table(
        ("backend", "supported", "compiled", "provider", "lockstep", "notes"),
        rows,
        title=f"{args.predictor} x {args.estimator}"
              + (" + adaptive" if args.adaptive else ""),
    ))
    if reason is not None:
        print(f"compiled provider: unavailable ({reason})")
    return 0


def _lint_config() -> dict:
    """``[tool.repro.lint]`` from ./pyproject.toml, when readable.

    ``tomllib`` landed in Python 3.11; on 3.10 (or with no pyproject in
    the working directory) the built-in defaults apply.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: fall back to defaults
        return {}
    pyproject = Path("pyproject.toml")
    if not pyproject.is_file():
        return {}
    try:
        with pyproject.open("rb") as handle:
            data = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError):
        return {}
    section = data.get("tool", {}).get("repro", {}).get("lint", {})
    return section if isinstance(section, dict) else {}


def _cmd_lint(args) -> int:
    from repro.analysis import (
        Baseline,
        RULES,
        get_rules,
        render_json,
        render_sarif,
        render_text,
        run_lint,
    )
    from repro.analysis.baseline import BaselineError
    from repro.sim.report import render_table

    if args.list_rules:
        print(render_table(
            ("rule", "name", "description"),
            [[rule.rule_id, rule.name, rule.description] for rule in RULES],
            title="repro lint rules",
        ))
        return 0

    config = _lint_config()
    paths = args.paths or config.get("paths") or ["src", "tools"]
    baseline_path = Path(
        args.baseline or config.get("baseline") or "tools/lint_baseline.json"
    )
    try:
        rules = get_rules(args.rules)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    try:
        baseline = None if args.no_baseline else Baseline.load(baseline_path)
    except BaselineError as error:
        raise SystemExit(str(error)) from None
    try:
        report = run_lint(
            [Path(p) for p in paths], root=Path.cwd(),
            rules=rules, baseline=baseline,
        )
    except FileNotFoundError as error:
        raise SystemExit(str(error)) from None

    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            Baseline.serialize(report.findings), encoding="utf-8"
        )
        print(
            f"wrote {baseline_path} ({len(report.findings)} entr"
            + ("y" if len(report.findings) == 1 else "ies") + ")"
        )
        return 0

    renderer = {"text": render_text, "json": render_json,
                "sarif": render_sarif}[args.fmt]
    rendered = renderer(report)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return report.exit_code


async def _serve_until_signalled(config: ServerConfig) -> ConfidenceServer:
    import asyncio
    import signal

    from repro.serve.server import ConfidenceServer

    server = ConfidenceServer(config)
    host, port = await server.start()
    print(f"serving on {host}:{port} "
          f"({config.n_shards} shards, queue<={config.max_tenant_queue}/tenant, "
          f"timeout {config.request_timeout:g}s)", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    print("draining...", flush=True)
    await server.drain()
    return server


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.server import ServerConfig

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            n_shards=args.shards,
            max_tenant_queue=args.max_queue,
            request_timeout=args.timeout,
            max_batch=args.max_batch,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    try:
        server = asyncio.run(_serve_until_signalled(config))
    except OSError as error:
        raise SystemExit(f"cannot serve on {args.host}:{args.port}: {error}") from None
    print(f"drained: {server.n_answered} answered, {server.n_rejected} rejected, "
          f"{server.n_timed_out} timed out, {len(server.session_stats())} tenants")
    return 0


def _cmd_drive(args) -> int:
    import json
    import uuid

    from repro.serve.client import ServeError
    from repro.serve.driver import (
        DifferentialMismatchError,
        DriveConfig,
        run_differential_check,
        run_drive,
    )
    from repro.sim.report import render_table

    # Tenants are stateful on the server side: re-using a name would
    # either re-attach to a trained predictor (skewing the curve and
    # breaking --verify's fresh-replay bit-identity) or be refused for
    # a different spec.  A per-invocation suffix keeps every drive run
    # against a long-lived server in its own namespace.
    prefix = f"{args.tenant_prefix}.{uuid.uuid4().hex[:8]}"
    target_mkp = _target_mkp(args)
    try:
        config = DriveConfig(
            host=args.host,
            port=args.port,
            trace=args.trace,
            n_branches=args.branches,
            predictor=args.predictor,
            estimator=args.estimator,
            adaptive=args.adaptive,
            **target_mkp,
            seed=args.seed,
            mode=args.mode,
            clients=tuple(args.clients),
            rates=tuple(args.rates),
            batch_size=args.batch,
            tenant_prefix=prefix,
            connect_timeout=args.connect_timeout,
            retries=args.retries,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    try:
        if args.verify:
            outcome = run_differential_check(
                args.host, args.port,
                config.session_spec(f"{prefix}.verify"),
                args.trace, args.branches,
                batch_size=args.batch,
                connect_timeout=args.connect_timeout,
            )
            print(f"differential: served == offline reference "
                  f"({outcome['mispredictions']} mispredictions over "
                  f"{outcome['n_branches']} branches, {outcome['mpki']:.2f} misp/KI)")
        report = run_drive(config)
    except DifferentialMismatchError as error:
        raise SystemExit(f"differential check FAILED: {error}") from None
    except ServeError as error:
        raise SystemExit(f"server error: {error}") from None
    except KeyError:
        raise SystemExit(f"unknown trace {args.trace!r}; try `list-traces`") from None
    except (ConnectionError, OSError) as error:
        raise SystemExit(
            f"cannot reach server at {args.host}:{args.port}: {error}"
        ) from None

    rows = [
        [
            str(point.clients),
            "-" if point.rate is None else f"{point.rate:g}",
            str(point.n_requests),
            str(point.n_rejected),
            str(point.n_timed_out),
            str(point.n_retries),
            f"{point.throughput_rps:.0f}",
            f"{point.p50_ms:.2f}",
            f"{point.p95_ms:.2f}",
            f"{point.p99_ms:.2f}",
        ]
        for point in report.points
    ]
    print()
    print(render_table(
        ("clients", "rate", "requests", "rejected", "timeout", "retried",
         "records/s", "p50 ms", "p95 ms", "p99 ms"),
        rows,
        title=f"{report.mode}-loop drive: {report.predictor} x "
              f"{report.estimator} on {report.trace} "
              f"({report.n_branches} branches, batch {report.batch_size})",
    ))
    if args.record is not None:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.record}")
    return 0


_HANDLERS = {
    "run-trace": _cmd_run_trace,
    "run-suite": _cmd_suite,
    "sweep": _cmd_sweep,
    "paper": _cmd_paper,
    "gen-trace": _cmd_gen_trace,
    "inspect": _cmd_inspect,
    "trace": _cmd_trace,
    "list-traces": _cmd_list_traces,
    "capability": _cmd_capability,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "drive": _cmd_drive,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
