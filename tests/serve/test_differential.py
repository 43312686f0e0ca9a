"""Served decisions must be bit-identical to the offline engines.

This is the serving layer's central correctness property: replaying a
trace through a server tenant yields exactly the per-branch
(prediction, confidence class) stream the offline reference engine
produces for the same (predictor, estimator, trace) cell.
"""

import asyncio
import random

import pytest

from repro.serve import (
    DifferentialMismatchError,
    DriveConfig,
    ServeClient,
    ServerConfig,
    SessionSpec,
    differential_check,
    drive,
    offline_decisions,
    running_server,
)
from repro.serve.state import TenantSession
from repro.sim.fast import compiled
from repro.sim.runner import get_trace

_CONFIG = ServerConfig(port=0, n_shards=2)


@pytest.fixture(params=("none", "cext"))
def kernel_leg(request, monkeypatch):
    """Pin the kernel multi-class sessions step on (``cext`` skips
    without the C build)."""
    monkeypatch.setenv(compiled.PROVIDER_ENV, request.param)
    if request.param == "cext" and compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    return request.param


def _run(coroutine_factory):
    async def main():
        async with running_server(_CONFIG) as server:
            host, port = server.address
            return await coroutine_factory(server, host, port)
    return asyncio.run(main())


class TestDifferential:
    @pytest.mark.parametrize("predictor,estimator", [
        ("tage-16K", "tage"),      # the paper's storage-free observation
        ("tage-16K-prob", "tage"), # probabilistic 3-bit automaton
        ("gshare", "jrs"),         # binary resetting-counter baseline
        ("gshare", "ejrs"),        # enhanced JRS
        ("perceptron", "self"),    # self-confidence wrapper
    ])
    def test_bit_identity(self, predictor, estimator):
        spec = SessionSpec(tenant=f"diff.{predictor}.{estimator}",
                           predictor=predictor, estimator=estimator)

        async def check(server, host, port):
            return await differential_check(
                host, port, spec, "zoo.markov", 2500, batch_size=173
            )

        outcome = _run(check)
        assert outcome["n_branches"] == 2500
        assert outcome["mispredictions"] > 0

    def test_bit_identity_adaptive(self):
        spec = SessionSpec(tenant="diff.adaptive", predictor="tage-16K",
                           estimator="tage", adaptive=True, target_mkp=8.0)

        async def check(server, host, port):
            return await differential_check(
                host, port, spec, "zoo.markov", 2000, batch_size=256
            )

        assert _run(check)["n_branches"] == 2000

    def test_bit_identity_with_seed(self):
        spec = SessionSpec(tenant="diff.seeded", predictor="tage-16K-prob",
                           estimator="tage", seed=1234)

        async def check(server, host, port):
            return await differential_check(
                host, port, spec, "zoo.phase", 2000, batch_size=101
            )

        assert _run(check)["n_branches"] == 2000

    def test_mismatch_raises(self):
        """A doctored offline stream must be caught, proving the compare
        actually compares."""
        trace = get_trace("zoo.loopnest", 600)
        spec = SessionSpec(tenant="diff.tampered", predictor="tage-16K",
                           estimator="tage")
        offline = offline_decisions(spec, trace)
        offline.predictions[17] = not offline.predictions[17]

        async def check(server, host, port):
            client = await ServeClient.connect(host, port)
            await client.hello(spec)
            served = await client.replay(trace, batch_size=200)
            await client.close()
            for index, (sp, op) in enumerate(
                zip(served.predictions, offline.predictions)
            ):
                if sp != op:
                    return index
            return None

        assert _run(check) == 17

    @pytest.mark.parametrize("predictor,estimator", [
        ("tage-16K", "tage"),
        ("gshare", "jrs"),
    ])
    @pytest.mark.parametrize("corruption", ["code", "prediction"])
    def test_check_catches_a_corrupted_served_stream(
        self, monkeypatch, predictor, estimator, corruption
    ):
        """differential_check runs the reference engine once; a served
        stream with one corrupted code or one flipped prediction must
        still fail it."""
        replay = ServeClient.replay

        async def corrupted_replay(self, trace, batch_size=512):
            served = await replay(self, trace, batch_size=batch_size)
            if corruption == "code":
                served.codes[321] ^= 1
            else:
                served.predictions[321] = not served.predictions[321]
            return served

        monkeypatch.setattr(ServeClient, "replay", corrupted_replay)
        spec = SessionSpec(tenant=f"diff.corrupt.{predictor}.{corruption}",
                           predictor=predictor, estimator=estimator)

        async def check(server, host, port):
            return await differential_check(
                host, port, spec, "zoo.markov", 800, batch_size=128
            )

        with pytest.raises(DifferentialMismatchError, match="branch 321"):
            _run(check)


class TestKernelSessions:
    """Multi-class sessions step on the TAGE kernel; the offline replay
    stays the reference engine, so these pin kernel ≡ reference."""

    @pytest.mark.parametrize("predictor,adaptive", [
        ("tage-16K", False),
        ("tage-64K", False),
        ("tage-256K", False),
        ("tage-16K-prob", False),
        ("tage-64K-prob", False),
        ("tage-16K", True),
        ("tage-64K", True),
    ])
    @pytest.mark.parametrize("split_seed", [0, 1])
    def test_random_batch_splits_match_offline(self, kernel_leg, predictor,
                                               adaptive, split_seed):
        trace = get_trace("zoo.phase", 3000)
        spec = SessionSpec(tenant="kernel", predictor=predictor,
                           estimator="tage", adaptive=adaptive,
                           target_mkp=4.0, seed=split_seed or None)
        offline = offline_decisions(spec, trace)
        session = TenantSession(spec)
        rng = random.Random(split_seed)
        predictions, codes = b"", b""
        start = 0
        while start < len(trace):
            stop = min(len(trace), start + rng.choice((0, 1, 7, 256, 900)))
            batch_predictions, batch_codes = session.observe_batch(
                trace.pcs[start:stop], bytes(trace.takens[start:stop])
            )
            predictions += batch_predictions
            codes += batch_codes
            start = stop
        assert [byte == 1 for byte in predictions] == offline.predictions
        assert list(codes) == offline.codes

        mispredictions = sum(
            prediction != (taken == 1)
            for prediction, taken in zip(offline.predictions, trace.takens)
        )
        assert session.stats() == {"tenant": "kernel", "observed": len(trace),
                                   "mispredictions": mispredictions}


class TestMultiTenant:
    def test_interleaved_tenants_stay_isolated(self):
        """Two tenants replaying concurrently each match their own
        offline stream — shard routing must not leak state."""
        trace_a = get_trace("zoo.markov", 1500)
        trace_b = get_trace("zoo.loopnest", 1500)
        spec_a = SessionSpec(tenant="iso.a", predictor="tage-16K", estimator="tage")
        spec_b = SessionSpec(tenant="iso.b", predictor="tage-16K", estimator="tage")
        offline_a = offline_decisions(spec_a, trace_a)
        offline_b = offline_decisions(spec_b, trace_b)

        async def replay(host, port, spec, trace):
            client = await ServeClient.connect(host, port)
            await client.hello(spec)
            stream = await client.replay(trace, batch_size=97)
            await client.close()
            return stream

        async def check(server, host, port):
            return await asyncio.gather(
                replay(host, port, spec_a, trace_a),
                replay(host, port, spec_b, trace_b),
            )

        served_a, served_b = _run(check)
        assert served_a.predictions == offline_a.predictions
        assert served_a.codes == offline_a.codes
        assert served_b.predictions == offline_b.predictions
        assert served_b.codes == offline_b.codes

    def test_session_reattach_continues_state(self):
        """A second connection to the same tenant continues the stream
        where the first left off (state lives in the server, not the
        connection)."""
        trace = get_trace("zoo.markov", 1000)
        spec = SessionSpec(tenant="reattach", predictor="tage-16K",
                           estimator="tage")
        offline = offline_decisions(spec, trace)
        half = 500

        async def check(server, host, port):
            first = await ServeClient.connect(host, port)
            await first.hello(spec)
            predictions_1, codes_1 = await first.observe(
                trace.pcs[:half], trace.takens[:half]
            )
            await first.close()

            second = await ServeClient.connect(host, port)
            hello = await second.hello(spec)
            assert hello["observed"] == half
            predictions_2, codes_2 = await second.observe(
                trace.pcs[half:], trace.takens[half:]
            )
            await second.close()
            return predictions_1 + predictions_2, codes_1 + codes_2

        predictions, codes = _run(check)
        assert [byte == 1 for byte in predictions] == offline.predictions
        assert list(codes) == offline.codes

    def test_reattach_with_different_spec_rejected(self):
        from repro.serve import ServeBadRequest

        async def check(server, host, port):
            first = await ServeClient.connect(host, port)
            await first.hello(SessionSpec(tenant="t0", predictor="tage-16K"))
            await first.close()
            second = await ServeClient.connect(host, port)
            with pytest.raises(ServeBadRequest, match="different session spec"):
                await second.hello(SessionSpec(tenant="t0", predictor="tage-64K"))
            await second.abort()

        _run(check)


class TestDrain:
    def test_drain_completes_queued_work(self):
        """Requests admitted before the drain are answered normally."""
        trace = get_trace("zoo.loopnest", 1000)
        spec = SessionSpec(tenant="drainee", predictor="tage-16K",
                           estimator="tage")
        offline = offline_decisions(spec, trace)
        config = ServerConfig(port=0, n_shards=1, service_delay=0.01)

        async def main():
            from repro.serve import ConfidenceServer
            server = ConfidenceServer(config)
            host, port = await server.start()
            client = await ServeClient.connect(host, port)
            await client.hello(spec)
            batches = [
                (trace.pcs[start:start + 250], trace.takens[start:start + 250])
                for start in range(0, len(trace), 250)
            ]
            for pcs, takens in batches:
                await client.send_observe(pcs, takens)
            while server.n_admitted < len(batches):
                await asyncio.sleep(0.001)
            # All four batches are queued (or in flight); drain must
            # answer every one of them before retiring the workers.
            drain_task = asyncio.ensure_future(server.drain())
            predictions = bytearray()
            codes = bytearray()
            for _ in batches:
                batch_predictions, batch_codes = await client.recv_result()
                predictions.extend(batch_predictions)
                codes.extend(batch_codes)
            await drain_task
            await client.abort()
            return bytes(predictions), bytes(codes), server.n_answered

        predictions, codes, n_answered = asyncio.run(main())
        assert n_answered == 4
        assert [byte == 1 for byte in predictions] == offline.predictions
        assert list(codes) == offline.codes


class TestDriver:
    def test_closed_loop_saturation_curve(self):
        config = ServerConfig(port=0, n_shards=2)

        async def main():
            async with running_server(config) as server:
                host, port = server.address
                return await drive(DriveConfig(
                    host=host, port=port, trace="zoo.loopnest",
                    n_branches=1200, predictor="tage-16K", estimator="tage",
                    mode="closed", clients=(1, 2, 3), batch_size=200,
                    tenant_prefix="curve",
                ))

        report = asyncio.run(main())
        assert len(report.points) == 3
        assert [point.clients for point in report.points] == [1, 2, 3]
        for point in report.points:
            # Every client replays the full trace, nothing is dropped.
            assert point.n_records == point.clients * 1200
            assert point.n_rejected == 0
            assert point.n_timed_out == 0
            assert point.throughput_rps > 0
            assert point.p50_ms <= point.p95_ms <= point.p99_ms
        payload = report.as_dict()
        assert payload["peak_throughput_rps"] == report.peak_throughput_rps
        assert len(payload["points"]) == 3

    def test_open_loop_measures_from_schedule(self):
        config = ServerConfig(port=0, n_shards=2)

        async def main():
            async with running_server(config) as server:
                host, port = server.address
                return await drive(DriveConfig(
                    host=host, port=port, trace="zoo.loopnest",
                    n_branches=1000, predictor="gshare", estimator="jrs",
                    mode="open", clients=(2,), rates=(500.0,),
                    batch_size=250, tenant_prefix="open",
                ))

        report = asyncio.run(main())
        (point,) = report.points
        assert point.mode == "open"
        assert point.rate == 500.0
        assert point.n_requests == 4
        assert point.n_records == 1000

    def test_drive_config_validation(self):
        with pytest.raises(ValueError, match="mode"):
            DriveConfig(mode="pulsed")
        with pytest.raises(ValueError, match="client counts"):
            DriveConfig(mode="closed", clients=(0,))
        with pytest.raises(ValueError, match="rates"):
            DriveConfig(mode="open", rates=(0.0,))

    def test_percentile_nearest_rank(self):
        from repro.serve.driver import percentile

        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 50) == 3.0
        assert percentile(samples, 100) == 5.0
        assert percentile(samples, 1) == 1.0
        assert percentile([], 99) == 0.0
        with pytest.raises(ValueError):
            percentile(samples, 101)
