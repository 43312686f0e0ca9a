"""Tests for the ``repro serve`` / ``repro drive`` CLI commands."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7421
        assert args.shards == 4
        assert args.max_queue == 64

    def test_drive_defaults(self):
        args = build_parser().parse_args(["drive"])
        assert args.mode == "closed"
        assert args.clients == [1, 2, 4]
        assert not args.verify

    def test_serve_bad_shards_exits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--shards", "0"])

    def test_drive_bad_mode_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["drive", "--mode", "pulsed"])

    def test_drive_bad_predictor_exits(self):
        with pytest.raises(SystemExit):
            main(["drive", "--predictor", "magic-8ball"])

    def test_drive_target_mkp_without_adaptive_exits(self):
        """Refused before any connection: the target would be ignored."""
        with pytest.raises(SystemExit, match="--adaptive"):
            main(["drive", "--port", "1", "--connect-timeout", "0.1",
                  "--target-mkp", "10"])

    def test_drive_unreachable_server_exits(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["drive", "--port", "1", "--connect-timeout", "0.1",
                  "--trace", "zoo.loopnest", "--branches", "200",
                  "--clients", "1"])


class TestServeDriveRoundTrip:
    def test_serve_drive_verify_and_clean_drain(self, tmp_path, capsys):
        """The CI smoke in miniature: start ``repro serve`` as a
        subprocess, ``repro drive --verify`` against it (bit-identity +
        saturation points), then SIGINT must drain cleanly to exit 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=Path(__file__).resolve().parents[2],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            # The server prints its bound address first thing.
            banner = server.stdout.readline()
            assert "serving on" in banner
            port = int(banner.split()[2].rsplit(":", 1)[1])

            record = tmp_path / "drive.json"
            assert main([
                "drive", "--port", str(port),
                "--trace", "zoo.loopnest", "--branches", "1500",
                "--predictor", "tage-16K", "--estimator", "tage",
                "--clients", "1", "2", "--batch", "250",
                "--verify", "--record", str(record),
            ]) == 0
            out = capsys.readouterr().out
            assert "served == offline reference" in out
            assert "closed-loop drive" in out

            payload = json.loads(record.read_text())
            assert len(payload["points"]) == 2
            assert payload["peak_throughput_rps"] > 0

            # A second verified drive against the SAME long-lived server
            # — different cell, same default --tenant-prefix — must not
            # collide with the first run's tenants (the CLI appends a
            # unique per-invocation suffix to the prefix).
            assert main([
                "drive", "--port", str(port),
                "--trace", "zoo.markov", "--branches", "800",
                "--predictor", "gshare", "--estimator", "jrs",
                "--clients", "1", "--batch", "200",
                "--verify",
            ]) == 0
            assert "served == offline reference" in capsys.readouterr().out
        finally:
            server.send_signal(signal.SIGINT)
            try:
                rc = server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                raise
        assert rc == 0
        remainder = server.stdout.read()
        assert "drained:" in remainder

    def test_drive_open_loop_against_in_process_server(self, capsys):
        import asyncio
        import threading

        from repro.serve import ConfidenceServer, ServerConfig

        started = threading.Event()
        address = {}
        loop_holder = {}

        def run_server():
            async def serve():
                server = ConfidenceServer(ServerConfig(port=0))
                address["addr"] = await server.start()
                loop_holder["loop"] = asyncio.get_running_loop()
                loop_holder["stop"] = asyncio.Event()
                started.set()
                await loop_holder["stop"].wait()
                await server.drain()

            asyncio.run(serve())

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        _, port = address["addr"]
        try:
            assert main([
                "drive", "--port", str(port),
                "--trace", "zoo.markov", "--branches", "800",
                "--predictor", "gshare", "--estimator", "jrs",
                "--mode", "open", "--rates", "400", "--clients", "2",
                "--batch", "200",
            ]) == 0
            out = capsys.readouterr().out
            assert "open-loop drive" in out
        finally:
            loop_holder["loop"].call_soon_threadsafe(loop_holder["stop"].set)
            thread.join(timeout=10)
        assert not thread.is_alive()
