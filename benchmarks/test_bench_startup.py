"""Start-up bench: what a command costs before it does any work (not a
paper experiment).

Each command loads only the modules it uses — lazy package exports, a
CLI whose handlers import their own modules, a cell factory without the
sweep broker.  This bench measures that in fresh interpreters, over
:data:`ROUNDS` interleaved rounds, and reports medians:

* ``import_cli_s`` — ``import repro.cli``, timed inside the process;
* ``help_s`` — ``python -m repro --help``, spawn to exit;
* ``serve_hello_s`` — ``python -m repro serve``, spawn until a client's
  HELLO for a ``tage-16K`` tenant is answered (the ``serve-closed``
  benchmark's ``setup_s``);
* ``whole_program_import_s`` — importing every command's modules at
  once (:data:`WHOLE_PROGRAM`), the cost ``import repro.cli`` paid when
  it loaded them all.

The ``layers`` block splits the in-process path of a server start
(import, parser, serving modules, session construction) and records the
interpreter floor (``python -c pass``).  The trajectory metric
``import_ratio`` is ``whole_program_import_s / import_cli_s``: a
machine-relative ratio that falls back towards 1 if the CLI starts
loading the whole program again.  The record also lists the ratio of
each round (``import_ratio_rounds``, sorted), so its spread can be held
against the trajectory guard's tolerance.  Emits
``benchmarks/records/BENCH_startup.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from conftest import emit, record, run_once  # noqa: F401

from repro.serve.client import ServeClient
from repro.serve.state import SessionSpec

SRC = Path(__file__).resolve().parents[1] / "src"
ROUNDS = 15

#: Every command's modules: what ``import repro.cli`` loaded before the
#: handlers imported their own.
WHOLE_PROGRAM = (
    "repro.cli", "repro.sim.runner", "repro.sim.report", "repro.sim.stats",
    "repro.sweep.executor", "repro.artifacts.runner", "repro.artifacts.registry",
    "repro.serve.server", "repro.serve.driver", "repro.traces.io",
    "repro.traces.stats", "repro.traces.sources.zoo", "asyncio", "uuid",
)

#: In-process phases of a server start, each printed as seconds.
_SERVE_PATH = """
import json, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
repro.cli.build_parser()
t2 = time.perf_counter()
import asyncio
from repro.serve.server import ConfidenceServer, ServerConfig
from repro.serve.state import SessionSpec, TenantSession
t3 = time.perf_counter()
TenantSession(SessionSpec(tenant="bench", predictor="tage-16K"))
t4 = time.perf_counter()
print(json.dumps({"import_cli_s": t1 - t0, "parser_s": t2 - t1,
                  "serve_modules_s": t3 - t2, "session_s": t4 - t3}))
"""

_WHOLE_PROGRAM = f"""
import importlib, json, time
t0 = time.perf_counter()
for name in {WHOLE_PROGRAM!r}:
    importlib.import_module(name)
print(json.dumps({{"whole_program_import_s": time.perf_counter() - t0}}))
"""


def _env() -> dict:
    # No inherited REPRO_*/PYTHON* setting: bytecode caching on, as in an
    # installed checkout.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _child_json(code: str) -> dict:
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=_env(), timeout=120, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def _wall(argv: list[str]) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, *argv], stdout=subprocess.DEVNULL,
                   env=_env(), timeout=120, check=True)
    return time.perf_counter() - started


async def _hello(port: int) -> None:
    client = await ServeClient.connect("127.0.0.1", port, 30.0)
    try:
        await client.hello(SessionSpec(tenant="bench", predictor="tage-16K"))
    finally:
        await client.close()


def _serve_hello(tmp_path: Path) -> float:
    """Seconds from spawning ``repro serve`` until HELLO is answered."""
    started = time.perf_counter()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=tmp_path, env=_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        ready, _, _ = select.select([server.stdout], [], [], 60.0)
        line = server.stdout.readline() if ready else ""
        assert line.startswith("serving on "), f"repro serve printed {line!r}"
        asyncio.run(_hello(int(line.split()[2].rsplit(":", 1)[1])))
        return time.perf_counter() - started
    finally:
        server.send_signal(signal.SIGINT)
        server.communicate(timeout=30)


def _measure(tmp_path: Path) -> dict[str, list[float]]:
    # One untimed pass writes the bytecode caches.
    _child_json(_WHOLE_PROGRAM)
    _child_json(_SERVE_PATH)
    samples: dict[str, list[float]] = {}

    def add(values: dict) -> None:
        for name, value in values.items():
            samples.setdefault(name, []).append(value)

    for _ in range(ROUNDS):
        add({"interpreter_s": _wall(["-c", "pass"])})
        add(_child_json(_SERVE_PATH))
        add({"help_s": _wall(["-m", "repro", "--help"])})
        add(_child_json(_WHOLE_PROGRAM))
        add({"serve_hello_s": _serve_hello(tmp_path)})
    return samples


def test_bench_startup(run_once, tmp_path):
    samples = run_once(lambda: _measure(tmp_path))
    medians = {name: statistics.median(values) for name, values in samples.items()}
    ratio = medians["whole_program_import_s"] / medians["import_cli_s"]
    round_ratios = sorted(
        whole / cli for whole, cli in
        zip(samples["whole_program_import_s"], samples["import_cli_s"])
    )
    rounded = {name: round(value, 4) for name, value in medians.items()}

    lines = [f"{name:<24} {value * 1e3:8.1f} ms" for name, value in rounded.items()]
    lines.append(f"whole program / import repro.cli: {ratio:.2f}x "
                 f"(rounds {round_ratios[0]:.2f}-{round_ratios[-1]:.2f})")
    emit("startup", "\n".join(lines))

    record("startup", {
        "bench": "startup",
        "metric": "import_ratio",
        "rounds": ROUNDS,
        "import_ratio": round(ratio, 2),
        "import_ratio_rounds": [round(value, 2) for value in round_ratios],
        "import_cli_s": rounded["import_cli_s"],
        "help_s": rounded["help_s"],
        "serve_hello_s": rounded["serve_hello_s"],
        "whole_program_import_s": rounded["whole_program_import_s"],
        "layers": {name: rounded[name] for name in (
            "interpreter_s", "import_cli_s", "parser_s", "serve_modules_s",
            "session_s",
        )},
    })
    # The CLI's own import must stay well below the whole program's.
    assert ratio > 1.5, f"import repro.cli costs {1 / ratio:.0%} of every module"
