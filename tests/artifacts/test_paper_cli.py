"""The ``repro paper`` CLI: selection, errors, outputs, cache round-trip."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

SUBSET_ARGS = ["--only", "SEC62_PROB", "APP_SMT_FETCH", "--branches", "400",
               "--workers", "1"]


def _paper(tmp_path, *extra, cache="cache"):
    argv = ["paper", *SUBSET_ARGS, "--out", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / cache), *extra]
    return main(argv)


def test_paper_writes_both_reports(tmp_path, capsys):
    assert _paper(tmp_path) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "sweep jobs" in out

    md = (tmp_path / "out" / "PAPER_RESULTS.md").read_text()
    payload = json.loads((tmp_path / "out" / "paper_results.json").read_text())
    assert set(payload["artifacts"]) == {"SEC62_PROB", "APP_SMT_FETCH"}
    assert "## SEC62_PROB" in md and "## APP_SMT_FETCH" in md
    # No artifact beyond the selection is built.
    assert "## TABLE1" not in md


def test_paper_quick_flag_sets_scale(tmp_path, capsys):
    argv = ["paper", "--quick", "--only", "APP_SMT_FETCH",
            "--out", str(tmp_path / "out"), "--no-cache", "--workers", "1"]
    assert main(argv) == 0
    payload = json.loads((tmp_path / "out" / "paper_results.json").read_text())
    assert payload["scale"]["n_branches"] == 4000


def test_paper_unknown_artifact_errors(tmp_path):
    with pytest.raises(SystemExit, match="unknown artifact 'NOPE'"):
        main(["paper", "--only", "NOPE", "--out", str(tmp_path)])


def test_paper_rejects_nonpositive_branches(tmp_path):
    with pytest.raises(SystemExit, match="n_branches must be positive"):
        main(["paper", "--branches", "0", "--only", "TABLE1", "--out", str(tmp_path)])


def test_paper_list_prints_registry(capsys):
    assert main(["paper", "--list"]) == 0
    out = capsys.readouterr().out
    for key in ("TABLE1", "FIG6", "SEC51_BIM", "APP_FETCH_GATING"):
        assert key in out


def test_paper_require_cached_conflicts_with_no_cache(tmp_path):
    with pytest.raises(SystemExit, match="require-cached"):
        main(["paper", "--no-cache", "--require-cached", "--out", str(tmp_path)])


def test_paper_cache_round_trip_determinism(tmp_path, capsys):
    """Second invocation over the same cache: fully served, byte-identical
    paper_results.json, and --require-cached passes."""
    assert _paper(tmp_path) == 0
    first_json = (tmp_path / "out" / "paper_results.json").read_bytes()
    first_md = (tmp_path / "out" / "PAPER_RESULTS.md").read_bytes()

    assert _paper(tmp_path, "--require-cached") == 0
    out = capsys.readouterr().out
    assert "0 executed" in out
    assert (tmp_path / "out" / "paper_results.json").read_bytes() == first_json
    assert (tmp_path / "out" / "PAPER_RESULTS.md").read_bytes() == first_md


def test_paper_require_cached_fails_on_cold_cache(tmp_path):
    with pytest.raises(SystemExit, match="served from the cache"):
        _paper(tmp_path, "--require-cached", cache="cold-cache")


#: Artifacts covering lockstep-fused TAGE units, a gshare x JRS/eJRS
#: grid and an observation-stream app, cheap on the reference backend.
DEFAULT_BACKEND_SUBSET = ("FIG4", "FIG6", "ABL_ALT_ON_NA", "SCENARIO_ZOO",
                          "APP_SMT_FETCH")


def test_paper_defaults_to_fast_backend_with_identical_bytes(tmp_path, capsys):
    """No --backend runs the fast engine without one fallback, stores no
    planes and writes the reference backend's bytes."""
    pytest.importorskip("numpy")
    import warnings

    from repro.sim.backends import FastBackendFallbackWarning

    def paper(out, *extra):
        return main(["paper", "--quick", "--only", *DEFAULT_BACKEND_SUBSET,
                     "--workers", "1", "--out", str(tmp_path / out), *extra])

    with warnings.catch_warnings():
        warnings.simplefilter("error", FastBackendFallbackWarning)
        assert paper("default", "--cache-dir", str(tmp_path / "cache")) == 0
    out = capsys.readouterr().out
    assert "on the fast backend" in out
    assert "fallback:" not in out
    assert not (tmp_path / "cache" / "planes").exists()

    assert paper("reference", "--backend", "reference", "--no-cache") == 0
    assert "on the reference backend" in capsys.readouterr().out
    for name in ("PAPER_RESULTS.md", "paper_results.json"):
        assert ((tmp_path / "default" / name).read_bytes()
                == (tmp_path / "reference" / name).read_bytes())
