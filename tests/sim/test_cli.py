"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_trace_defaults(self):
        args = build_parser().parse_args(["run-trace", "FP-1"])
        assert args.size == "64K"
        assert args.automaton == "standard"

    def test_bad_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-trace", "FP-1", "--size", "2M"])


class TestCommands:
    def test_list_traces(self, capsys):
        assert main(["list-traces"]) == 0
        out = capsys.readouterr().out
        assert "FP-1" in out and "300.twolf" in out

    def test_run_trace(self, capsys):
        assert main(["run-trace", "FP-1", "--branches", "1500", "--size", "16K"]) == 0
        out = capsys.readouterr().out
        assert "high-conf-bim" in out

    def test_run_trace_probabilistic(self, capsys):
        code = main([
            "run-trace", "FP-1", "--branches", "1500", "--size", "16K",
            "--automaton", "probabilistic", "--sat-prob-log2", "4",
        ])
        assert code == 0

    @pytest.mark.parametrize("command", [["run-trace", "FP-1"], ["run-suite", "CBP1"]])
    def test_sat_prob_log2_needs_probabilistic_automaton(self, command):
        # The standard automaton never reads K: reject instead of
        # silently printing the default run.
        with pytest.raises(SystemExit, match="--automaton probabilistic"):
            main(command + ["--branches", "100", "--sat-prob-log2", "3"])

    def test_run_trace_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["run-trace", "NOPE-1", "--branches", "100"])

    def test_gen_and_inspect_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "fp1.rtrc.gz"
        assert main(["gen-trace", "FP-1", str(path), "--branches", "1200"]) == 0
        assert path.exists()
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FP-1" in out
        assert "1200 branches" in out

    def test_trace_list_shows_source_registry(self, capsys):
        assert main(["trace", "--list"]) == 0
        out = capsys.readouterr().out
        assert "zoo.markov" in out and "zoo.jrs-inversion" in out
        assert "file:" in out  # the replay prefix is advertised

    def test_trace_generate_export_replay_roundtrip(self, tmp_path, capsys):
        """CLI round trip: generate a source, export it, inspect the
        file, then replay it through the ``file:`` prefix — all via main()."""
        from repro.traces.sources import get_source

        path = tmp_path / "zm.rtrc.gz"
        assert main([
            "trace", "--source", "zoo.markov", "--branches", "800",
            "--export", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "zoo.markov: 800 branches" in out
        assert f"wrote 800 records to {path}" in out

        assert main(["trace", "--input", str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "800 branches" in out

        assert main(["trace", "--source", f"file:{path}", "--branches", "800"]) == 0
        out = capsys.readouterr().out
        assert f"file:{path}: 800 branches" in out

        from repro.traces.io import read_trace

        direct = get_source("zoo.markov").generate(800)
        loaded = read_trace(path)
        assert loaded.pcs == direct.pcs
        assert list(loaded.takens) == list(direct.takens)

    def test_trace_accepts_cbp_names(self, capsys):
        assert main(["trace", "--source", "INT-1", "--branches", "500"]) == 0
        assert "INT-1: 500 branches" in capsys.readouterr().out

    def test_trace_unknown_source_fails(self):
        with pytest.raises(SystemExit):
            main(["trace", "--source", "zoo.nope", "--branches", "100"])

    def test_trace_corrupt_input_exits_cleanly(self, tmp_path):
        path = tmp_path / "junk.rtrc"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(SystemExit, match="bad magic"):
            main(["trace", "--input", str(path)])

    def test_trace_requires_exactly_one_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "--source", "zoo.markov", "--list"]
            )

    def test_suite_command_rejects_a_partial_suite(self, monkeypatch):
        # A quarantined trace fails the command instead of summarizing
        # the rest of the suite as if it were whole.
        monkeypatch.setenv("REPRO_FAULTS", "poison@1")
        with pytest.raises(SystemExit, match="injected deterministic failure"):
            main(["run-suite", "CBP1", "--branches", "100", "--size", "16K"])

    def test_suite_command_runs_full_suite(self, capsys):
        # run-suite over CBP1 at a tiny branch count: exercises the whole
        # path (20 traces) quickly.
        assert main(["run-suite", "CBP1", "--branches", "400", "--size", "16K"]) == 0
        out = capsys.readouterr().out
        assert "SERV-5" in out
        assert "three-level summary" in out
