"""Tests for the ``repro sweep`` CLI command."""

import pytest

from repro.cli import build_parser, main


class TestSweepParser:
    def test_defaults_give_a_multi_axis_grid(self):
        args = build_parser().parse_args(["sweep"])
        assert len(args.predictors) >= 2
        assert len(args.estimators) >= 2
        assert args.workers is None
        assert not args.no_cache

    def test_bad_predictor_token_exits(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--predictors", "magic-8ball", "--no-cache"])

    def test_unknown_trace_exits(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--traces", "NOPE-1", "--no-cache"])

    def test_target_mkp_without_adaptive_exits(self):
        """The target would change nothing but the cache keys."""
        with pytest.raises(SystemExit, match="--adaptive"):
            main(["sweep", "--target-mkp", "12", "--no-cache"])

    def test_default_target_mkp_without_adaptive_exits(self):
        """An explicit target equal to the default is refused too."""
        with pytest.raises(SystemExit, match="--adaptive"):
            main(["sweep", "--target-mkp", "10", "--no-cache",
                  "--traces", "INT-1", "--branches", "200",
                  "--predictors", "tage-16K", "--estimators", "tage"])

    def test_adaptive_sweep_runs(self, capsys):
        assert main([
            "sweep", "--branches", "400", "--traces", "INT-1",
            "--predictors", "tage-16K-prob", "--estimators", "tage",
            "--adaptive", "--target-mkp", "5", "--no-cache",
        ]) == 0
        assert "tage-16K-prob" in capsys.readouterr().out


class TestSweepCommand:
    ARGS = [
        "sweep",
        "--branches", "400",
        "--workers", "2",
        "--traces", "FP-1", "INT-1",
        "--predictors", "tage-16K", "gshare",
        "--estimators", "tage", "jrs",
    ]

    def test_runs_grid_and_prints_table(self, capsys):
        assert main(self.ARGS + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "6 jobs" in out  # 3 compatible pairs x 2 traces
        assert "tage-16K" in out and "gshare" in out
        assert "misp/KI" in out

    def test_tsv_output(self, capsys):
        assert main(self.ARGS + ["--no-cache", "--tsv"]) == 0
        out = capsys.readouterr().out
        assert "trace\tpredictor\testimator" in out

    def test_second_invocation_hits_cache(self, tmp_path, capsys):
        cache_args = self.ARGS + ["--cache-dir", str(tmp_path)]
        assert main(cache_args) == 0
        first = capsys.readouterr().out
        assert "(0 cached, 6 executed)" in first

        assert main(cache_args) == 0
        second = capsys.readouterr().out
        assert "(6 cached, 0 executed)" in second
