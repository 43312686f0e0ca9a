"""Unit tests for the CI bench-trajectory guard script.

The guard must fail with a *clear one-line message* — never a stack
trace — for every malformed-input shape CI can hand it: an empty or
missing baseline directory, unparseable record JSON, and records
without a numeric ``speedup`` field.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL_PATH = Path(__file__).resolve().parents[2] / "tools" / "check_bench_trajectory.py"

_spec = importlib.util.spec_from_file_location("check_bench_trajectory", _TOOL_PATH)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def write_record(root: Path, name: str, speedup) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"BENCH_{name}.json"
    path.write_text(json.dumps({"bench": name, "speedup": speedup}) + "\n")
    return path


class TestLoadRecords:
    def test_loads_well_formed_records(self, tmp_path):
        write_record(tmp_path, "a", 4.5)
        write_record(tmp_path, "b", 9)
        records = tool.load_records(tmp_path)
        assert sorted(records) == ["BENCH_a.json", "BENCH_b.json"]
        assert records["BENCH_a.json"]["speedup"] == 4.5

    def test_invalid_json_raises_record_error(self, tmp_path):
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        with pytest.raises(tool.RecordLoadError, match="not valid JSON"):
            tool.load_records(tmp_path)

    @pytest.mark.parametrize("payload", [{}, {"speedup": "fast"}, {"speedup": True}])
    def test_missing_or_non_numeric_speedup_raises(self, tmp_path, payload):
        (tmp_path / "BENCH_bad.json").write_text(json.dumps(payload))
        with pytest.raises(tool.RecordLoadError, match="speedup"):
            tool.load_records(tmp_path)

    def test_non_object_payload_raises(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text(json.dumps([1, 2]))
        with pytest.raises(tool.RecordLoadError, match="JSON object"):
            tool.load_records(tmp_path)


class TestMain:
    def run(self, *argv):
        return tool.main(list(argv))

    def test_empty_baseline_dir_fails_with_message(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        baseline.mkdir()
        fresh = tmp_path / "fresh"
        code = self.run("--fresh", str(fresh), "--baseline", str(baseline))
        assert code == 1
        err = capsys.readouterr().err
        assert "no BENCH_*.json baselines" in err

    def test_missing_baseline_dir_fails_with_message(self, tmp_path, capsys):
        code = self.run(
            "--fresh", str(tmp_path / "fresh"),
            "--baseline", str(tmp_path / "does-not-exist"),
        )
        assert code == 1
        assert "no BENCH_*.json baselines" in capsys.readouterr().err

    def test_malformed_baseline_fails_with_message_not_traceback(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        baseline.mkdir()
        (baseline / "BENCH_bad.json").write_text("{truncated")
        code = self.run("--fresh", str(tmp_path / "fresh"), "--baseline", str(baseline))
        assert code == 1
        err = capsys.readouterr().err
        assert "error: malformed record" in err
        assert "BENCH_bad.json" in err

    def test_malformed_fresh_record_fails_with_message(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        write_record(baseline, "a", 5.0)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        (fresh / "BENCH_a.json").write_text(json.dumps({"speedup": None}))
        code = self.run("--fresh", str(fresh), "--baseline", str(baseline))
        assert code == 1
        assert "speedup" in capsys.readouterr().err

    def test_regression_detected(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        write_record(baseline, "a", 10.0)
        fresh = tmp_path / "fresh"
        write_record(fresh, "a", 2.0)
        code = self.run("--fresh", str(fresh), "--baseline", str(baseline))
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_within_tolerance_passes(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        write_record(baseline, "a", 10.0)
        fresh = tmp_path / "fresh"
        write_record(fresh, "a", 8.0)
        code = self.run("--fresh", str(fresh), "--baseline", str(baseline))
        assert code == 0
        assert "all 1 record(s)" in capsys.readouterr().out

    def test_stale_baseline_reported_but_passes(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        write_record(baseline, "a", 8.0)
        write_record(baseline, "b", 8.0)
        fresh = tmp_path / "fresh"
        write_record(fresh, "a", 40.0)
        write_record(fresh, "b", 16.0)  # exactly 2x: not stale yet
        code = self.run("--fresh", str(fresh), "--baseline", str(baseline))
        assert code == 0
        out = capsys.readouterr().out
        stale = [line for line in out.splitlines() if "stale baseline" in line]
        assert stale == [
            "stale baseline: BENCH_a.json: speedup 40.00 is over 2x its "
            "baseline 8.00; re-record it"
        ]

    def test_fresh_baseline_prints_no_stale_line(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        write_record(baseline, "a", 10.0)
        fresh = tmp_path / "fresh"
        write_record(fresh, "a", 12.0)
        assert self.run("--fresh", str(fresh), "--baseline", str(baseline)) == 0
        assert "stale baseline" not in capsys.readouterr().out

    def test_missing_fresh_measurement_fails(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        write_record(baseline, "a", 10.0)
        code = self.run("--fresh", str(tmp_path / "fresh"), "--baseline", str(baseline))
        assert code == 1
        assert "MISSING" in capsys.readouterr().out


class TestMetricField:
    """Records may name their compared metric (default ``speedup``)."""

    def write_metric_record(self, root: Path, name: str, metric: str, value) -> Path:
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"BENCH_{name}.json"
        path.write_text(json.dumps({"bench": name, "metric": metric, metric: value}) + "\n")
        return path

    def test_loads_record_with_custom_metric(self, tmp_path):
        self.write_metric_record(tmp_path, "serve", "relative_throughput", 0.8)
        records = tool.load_records(tmp_path)
        assert records["BENCH_serve.json"]["relative_throughput"] == 0.8
        assert tool.metric_name(records["BENCH_serve.json"]) == "relative_throughput"

    def test_custom_metric_missing_value_raises(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text(
            json.dumps({"metric": "relative_throughput", "speedup": 4.0})
        )
        with pytest.raises(tool.RecordLoadError, match="relative_throughput"):
            tool.load_records(tmp_path)

    def test_non_string_metric_raises(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text(json.dumps({"metric": 7, "7": 1.0}))
        with pytest.raises(tool.RecordLoadError, match="field name"):
            tool.load_records(tmp_path)

    def test_custom_metric_regression_detected(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        fresh = tmp_path / "fresh"
        self.write_metric_record(baseline, "serve", "relative_throughput", 1.0)
        self.write_metric_record(fresh, "serve", "relative_throughput", 0.2)
        assert tool.main(["--fresh", str(fresh), "--baseline", str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_custom_metric_within_tolerance_passes(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        fresh = tmp_path / "fresh"
        self.write_metric_record(baseline, "serve", "relative_throughput", 1.0)
        self.write_metric_record(fresh, "serve", "relative_throughput", 0.9)
        assert tool.main(["--fresh", str(fresh), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "relative_throughput" in out

    def test_mixed_metrics_compare_independently(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        fresh = tmp_path / "fresh"
        write_record(baseline, "fast", 8.0)
        self.write_metric_record(baseline, "serve", "relative_throughput", 1.0)
        write_record(fresh, "fast", 7.5)
        self.write_metric_record(fresh, "serve", "relative_throughput", 0.95)
        assert tool.main(["--fresh", str(fresh), "--baseline", str(baseline)]) == 0
        assert "all 2 record(s)" in capsys.readouterr().out

    def test_fresh_record_missing_baseline_metric_fails(self, tmp_path, capsys):
        baseline = tmp_path / "records"
        fresh = tmp_path / "fresh"
        self.write_metric_record(baseline, "serve", "relative_throughput", 1.0)
        # Fresh record is valid on its own (different metric) but lacks
        # the field the baseline compares.
        self.write_metric_record(fresh, "serve", "speedup", 4.0)
        assert tool.main(["--fresh", str(fresh), "--baseline", str(baseline)]) == 1
        assert "MALFORMED" in capsys.readouterr().out
