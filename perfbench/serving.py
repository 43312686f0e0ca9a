"""The ``serve-closed`` workload: a ``repro serve`` child driven in a
closed loop from the benchmark process.

Each sample starts a fresh server (``python -m repro serve`` on an
ephemeral port, or ``child.py serve`` for the traced sample), opens
:data:`CLIENTS` connections on fresh tenants, and replays the
seed-generated stream through each in :data:`BATCH`-branch requests; a
client sends its next request only when the previous one is answered.
Served decisions are compared with ``offline_decisions`` for the same
cell, computed once per run outside any timing.
"""

from __future__ import annotations

import asyncio
import json
import re
import select
import signal
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

from harness import (
    BenchmarkError, Sandbox, Tally, child_command, log, median, peak_rss_mb,
    nearest_rank, quiet_samples, setup_probes, tail_percentile,
)

HOST = "127.0.0.1"
PREDICTOR = "tage-16K"
ESTIMATOR = "tage"
CLIENTS = 2
BATCH = 256
#: 512 requests per client: 1024 per sample, so p99 has 10 beyond it.
STREAM_BRANCHES = 512 * BATCH
STREAM_PROFILE = "INT-2"
#: Quiet samples a run reports the median of (a sample is short).
MIN_SAMPLES = 6
_SERVING = re.compile(r"serving on \S+:(\d+)")


@dataclass
class Drive:
    """One sample's closed-loop replay, timed on ``time.monotonic``."""

    t_ready: float
    t_start: float
    t_end: float
    #: Per client, per request: (predictions, codes) or None if refused.
    answers: list[list]
    latencies: list[float]


def write_stream(directory: Path, seed: int):
    """Write the seed's stream through the public trace writer and read
    it back; the benchmark replays what the file holds."""
    from repro.traces import SyntheticWorkload, read_trace, trace_spec, write_trace

    directory.mkdir(parents=True, exist_ok=True)
    spec = replace(trace_spec(STREAM_PROFILE), name="serve-stream",
                   seed=zlib.crc32(f"perfbench/serve/{seed}".encode()))
    path = directory / "stream.rtrc"
    write_trace(SyntheticWorkload(spec).generate(STREAM_BRANCHES), path)
    return read_trace(path)


def session(tenant: str):
    from repro.serve.state import SessionSpec

    return SessionSpec(tenant=tenant, predictor=PREDICTOR, estimator=ESTIMATOR)


def expected_answers(stream) -> list[tuple[bytes, bytes]]:
    """The offline reference decisions, cut into the request batches."""
    from repro.serve.driver import offline_decisions

    offline = offline_decisions(session("offline"), stream)
    predictions = bytes(1 if p else 0 for p in offline.predictions)
    codes = bytes(offline.codes)
    return [(predictions[i:i + BATCH], codes[i:i + BATCH])
            for i in range(0, len(stream), BATCH)]


def failed_requests(answers: list[list], expected: list) -> int:
    """Requests refused (None) or answered with any decision differing
    from the offline reference."""
    return sum(
        1 for client in answers
        for answer, reference in zip(client, expected, strict=True)
        if answer is None or tuple(answer) != reference
    )


async def _replay(client, batches, answers, latencies) -> None:
    from repro.serve.client import ServeRejected, ServeTimeout

    for pcs, takens in batches:
        sent = time.monotonic()
        try:
            answer = await client.observe(pcs, takens)
        except (ServeRejected, ServeTimeout):
            answers.append(None)
            continue
        latencies.append(time.monotonic() - sent)
        answers.append(answer)


async def _drive(port: int, batches, tenants) -> Drive:
    from repro.serve.client import ServeClient

    clients = []
    t_ready = None
    try:
        for tenant in tenants:
            client = await ServeClient.connect(HOST, port, 30.0)
            clients.append(client)
            await client.hello(session(tenant))
            t_ready = t_ready or time.monotonic()
        answers = [[] for _ in clients]
        latencies: list[float] = []
        t_start = time.monotonic()
        await asyncio.gather(*(
            _replay(client, batches, answer_list, latencies)
            for client, answer_list in zip(clients, answers)
        ))
        t_end = time.monotonic()
    finally:
        for client in clients:
            await client.close()
    return Drive(t_ready, t_start, t_end, answers, latencies)


class Server:
    """A ``repro serve`` child on an ephemeral port; always stopped."""

    def __init__(self, sandbox: Sandbox, trace_dir: Path | None = None) -> None:
        argv = ["--host", HOST, "--port", "0"]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", "serve", *argv]
        else:
            command = child_command("serve", {"argv": argv,
                                              "trace_dir": str(trace_dir)})
        self.log = (sandbox.root / "serve.log").open("w")
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=sandbox.root, env=sandbox.env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self.log,
            text=True,
        )
        self.port = self._read_port()

    def _read_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [],
                                        deadline - time.monotonic())
            line = stdout.readline() if ready else ""
            match = _SERVING.match(line)
            if match:
                return int(match[1])
            if ready and not line:
                break
        self.stop()
        raise BenchmarkError("repro serve did not start")

    def stop(self) -> str:
        """SIGINT (graceful drain), wait, and return the server's stdout."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            stdout, _ = self.process.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            stdout, _ = self.process.communicate()
        self.log.close()
        if self.process.returncode != 0:
            raise BenchmarkError(
                f"repro serve exited {self.process.returncode}"
            )
        return stdout


def probe_setup(sandbox: Sandbox) -> float:
    """One fresh server start: seconds from spawn until HELLO is answered."""
    server = Server(sandbox)
    try:
        drive = asyncio.run(_drive(server.port, [], ["probe"]))
    finally:
        server.stop()
    return drive.t_ready - server.spawned


def run_serve(seed: int, seconds: int, traced: bool,
              runs_dir: Path) -> tuple[Tally, dict]:
    """Untraced: :data:`MIN_SAMPLES` quiet samples (see
    ``harness.quiet_samples``) and the end-to-end metrics.  Traced: one
    untraced sample for the overhead estimate, then one traced server
    for the layer split."""
    stream = write_stream(runs_dir / "inputs", seed)
    expected = expected_answers(stream)
    batches = [(stream.pcs[i:i + BATCH], stream.takens[i:i + BATCH])
               for i in range(0, len(stream), BATCH)]
    tally = Tally()

    def take(index: int) -> dict:
        setup = setup_probes(runs_dir, index, probe_setup)
        with Sandbox(runs_dir, f"sample-{index}") as sandbox:
            server = Server(sandbox)
            try:
                drive = asyncio.run(_drive(server.port, batches, [
                    f"perfbench.{seed}.{index}.{c}" for c in range(CLIENTS)]))
                rss = peak_rss_mb(server.process.pid)
            finally:
                server.stop()
        account(drive, expected, tally)
        wall = drive.t_end - drive.t_start
        result = {
            "setup": setup + [drive.t_ready - server.spawned],
            "wall_s": wall,
            "branches_per_s": len(drive.latencies) * BATCH / wall,
            "latencies": drive.latencies,
            "p99_ms": tail_percentile(drive.latencies, 99) * 1e3,
            "peak_rss_mb": rss,
        }
        log(f"serve-closed: sample {index} {result['branches_per_s']:.0f} "
            f"branches/s, p99 {result['p99_ms']:.2f} ms")
        return result

    if not traced:
        samples = quiet_samples(take, MIN_SAMPLES, seconds)
        metrics = {
            name: (median([sample[name] for sample in samples]), unit)
            for name, unit in (("wall_s", "s"), ("branches_per_s", "1/s"),
                               ("peak_rss_mb", "MB"))
        }
        # The latency median over every request of the run: a closed
        # loop's per-sample median snaps between one and two step times
        # as the clients fall in and out of phase.
        latencies = [t for sample in samples for t in sample["latencies"]]
        metrics["p50_ms"] = (nearest_rank(latencies, 50) * 1e3, "ms")
        setup = [t for sample in samples for t in sample["setup"]]
        return tally, {"setup_s": (median(setup), "s"), **metrics}

    from tracing import layer_metrics, load_spans

    untraced = take(0)
    with Sandbox(runs_dir, "traced") as sandbox:
        server = Server(sandbox, trace_dir=sandbox.trace_dir)
        try:
            drive = asyncio.run(_drive(server.port, batches, [
                f"perfbench.{seed}.traced.{c}" for c in range(CLIENTS)]))
        finally:
            report = json.loads(server.stop().strip().splitlines()[-1])
        spans, counts = load_spans(sandbox.trace_dir)
    account(drive, expected, tally)
    metrics = layer_metrics(spans, counts, drive.t_start, drive.t_end)
    metrics["setup.import_s"] = (report["import_s"], "s")
    metrics["setup.kernel_load_s"] = (report["kernel_load_s"], "s")
    metrics["trace_overhead_s"] = (
        (drive.t_end - drive.t_start) - untraced["wall_s"], "s"
    )
    metrics["serve.p99_ms"] = (untraced["p99_ms"], "ms")
    return tally, metrics


def account(drive: Drive, expected: list, tally: Tally) -> None:
    failed = failed_requests(drive.answers, expected)
    if failed:
        log(f"serve-closed: {failed} request(s) refused or mismatched")
    tally.add(sum(len(client) for client in drive.answers), failed)
