"""CLI backend-selector tests (`--backend` on run-trace/run-suite/sweep)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.sim.backends import FastBackendFallbackWarning


class TestParser:
    @pytest.mark.parametrize("command", [["run-trace", "FP-1"], ["run-suite", "CBP1"], ["sweep"]])
    def test_backend_defaults_to_reference(self, command):
        assert build_parser().parse_args(command).backend == "reference"

    def test_backend_accepts_fast(self):
        args = build_parser().parse_args(["sweep", "--backend", "fast"])
        assert args.backend == "fast"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backend", "turbo"])


class TestCommands:
    def test_sweep_fast_backend_vectorized_grid(self, capsys):
        pytest.importorskip("numpy")
        code = main([
            "sweep", "--backend", "fast", "--no-cache",
            "--predictors", "gshare", "bimodal",
            "--estimators", "jrs", "ejrs",
            "--traces", "INT-1", "--branches", "1000", "--workers", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 jobs" in out

    def test_sweep_backends_print_identical_tables(self, capsys):
        pytest.importorskip("numpy")
        base = [
            "sweep", "--no-cache", "--predictors", "gshare",
            "--estimators", "jrs", "--traces", "MM-1",
            "--branches", "1200", "--workers", "1", "--tsv",
        ]
        def tsv_portion(out: str) -> str:
            # Drop the progress lines (they carry wall-clock timings);
            # keep everything from the TSV header on.
            return out[out.index("trace\t"):]

        assert main(base) == 0
        reference_out = capsys.readouterr().out
        assert main(base + ["--backend", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert tsv_portion(fast_out) == tsv_portion(reference_out)

    def test_run_trace_fast_tage_runs_without_warning(self, capsys):
        """The TAGE×observation cell behind run-trace is fast-native now."""
        pytest.importorskip("numpy")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", FastBackendFallbackWarning)
            code = main([
                "run-trace", "FP-1", "--branches", "1200",
                "--size", "16K", "--backend", "fast",
            ])
        assert code == 0
        assert "high-conf-bim" in capsys.readouterr().out

    def test_run_trace_backends_print_identical_tables(self, capsys):
        pytest.importorskip("numpy")
        base = ["run-trace", "MM-1", "--branches", "1500", "--size", "16K"]
        assert main(base) == 0
        reference_out = capsys.readouterr().out
        assert main(base + ["--backend", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert fast_out == reference_out

    @pytest.mark.parametrize("command", [["run-trace", "INT-1"], ["run-suite", "CBP2"]])
    def test_fast_run_leaves_no_file_behind(self, command, tmp_path,
                                            monkeypatch, capsys):
        """Fast runs compute their TAGE planes in memory: nothing lands
        under the working directory."""
        pytest.importorskip("numpy")
        monkeypatch.chdir(tmp_path)
        assert main(command + [
            "--branches", "1200", "--size", "16K", "--backend", "fast",
        ]) == 0
        assert "misp" in capsys.readouterr().out.lower()
        assert list(tmp_path.iterdir()) == []

    def test_capability_reports_pinned_pure_kernels(self, monkeypatch, capsys):
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_COMPILED_PROVIDER", "none")
        assert main(["capability", "--predictor", "tage-16K"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_COMPILED_PROVIDER=none pins the pure-Python kernels" in out

    def test_capability_rejects_unknown_provider_in_one_line(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_COMPILED_PROVIDER", "turbo")
        with pytest.raises(SystemExit, match="unknown REPRO_COMPILED_PROVIDER"):
            main(["capability", "--predictor", "tage-16K"])
