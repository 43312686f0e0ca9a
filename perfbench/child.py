"""One fresh process of the program under test.

    python perfbench/child.py MODE CONFIG_JSON

The benchmark spawns this with an isolated environment (see
``harness.isolated_env``) and reads the JSON object printed as the last
line of standard output.  Every mode first makes the program ready —
imports ``repro`` and loads the compiled-kernel provider — and stamps
``t_ready`` on ``time.monotonic``.

Modes:

``ready``
    Report readiness and exit (a set-up probe).
``run``
    Run each ``repro`` command line in ``config["argvs"]`` in process,
    capturing its standard output; stamp ``t_start``/``t_done`` around
    the commands plus the digests of ``config["outputs"]``.  Afterwards,
    outside the timing, read each job's recorded execution time back
    from the sample's result cache (``config["cache"]``).
``serve``
    Run ``repro serve`` (a traced server; untraced samples start
    ``python -m repro serve`` directly).  Ready means imported here.

With ``config["trace_dir"]`` set, the layer spans of this process (and
of every forked sweep worker) are written there; see ``tracing.py``.
"""

import contextlib
import hashlib
import io
import json
import pickle
import resource
import sys
import time
from pathlib import Path


def _ready(load_kernels: bool) -> dict:
    started = time.monotonic()
    import repro.cli  # noqa: F401 — the program's entry point
    imported = time.monotonic()
    provider = None
    if load_kernels:
        # ``repro serve`` steps the reference model and never loads the
        # compiled kernels, so its traced twin skips them too.
        from repro.sim.fast import compiled

        provider = compiled.active_provider()
    ready = time.monotonic()
    return {
        "t_ready": ready,
        "provider": provider,
        "import_s": imported - started,
        "kernel_load_s": ready - imported,
    }


def _run_commands(config: dict) -> dict:
    import repro.cli

    outputs = []
    codes = []
    started = time.monotonic()
    for argv in config["argvs"]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            try:
                code = repro.cli.main(argv)
            except SystemExit as exit_:
                code = exit_.code
        codes.append(code)
        outputs.append(captured.getvalue())
    digests = {
        name: hashlib.sha256((Path(config["out"]) / name).read_bytes()).hexdigest()
        for name in config.get("outputs", ())
    }
    done = time.monotonic()
    return {
        "t_start": started,
        "t_done": done,
        "exit_codes": codes,
        "stdout": outputs,
        "digests": digests,
        "jobs": _job_records(config.get("cache")),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _job_records(cache) -> list:
    """(cache key, execution seconds, branches) of every job this sample
    stored, read from its own result cache."""
    if cache is None:
        return []
    records = []
    for path in sorted(Path(cache).glob("*.pkl")):
        with path.open("rb") as handle:
            result = pickle.load(handle)
        records.append([path.stem, result.elapsed, result.result.n_branches])
    return records


def _peak_rss_mb() -> float:
    """Largest resident set of this process and its joined workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main() -> int:
    mode = sys.argv[1]
    config = json.loads(sys.argv[2]) if len(sys.argv) > 2 else {}
    report = _ready(load_kernels=mode != "serve")
    recorder = None
    if config.get("trace_dir"):
        import tracing

        recorder = tracing.Recorder(config["trace_dir"])
        tracing.install(recorder)
    if mode == "run":
        report.update(_run_commands(config))
    elif mode == "serve":
        import repro.cli

        report["exit_codes"] = [repro.cli.main(["serve", *config["argv"]])]
    elif mode != "ready":
        raise SystemExit(f"unknown mode {mode!r}")
    if recorder is not None:
        recorder.dump()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
