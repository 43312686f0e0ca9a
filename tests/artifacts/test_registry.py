"""Registry integrity + a tiny-scale build of every registered artifact."""

from __future__ import annotations

import pytest

from repro.artifacts import (
    ARTIFACT_KEYS,
    REGISTRY,
    Scale,
    SweepService,
    UnknownArtifactError,
    build_artifact,
    get_artifact,
    suite_grid,
)
from repro.sweep import ResultCache

#: Small enough to keep the full-registry build in seconds, large enough
#: that every confidence class sees volume on every trace.
TINY = Scale(400)


def test_registry_keys_are_canonical():
    assert ARTIFACT_KEYS == tuple(REGISTRY)
    for key, spec in REGISTRY.items():
        assert spec.key == key == key.upper()
        assert spec.title and spec.paper_element and spec.description


def test_registry_covers_every_paper_element():
    elements = {spec.paper_element for spec in REGISTRY.values()}
    for expected in ("Table 1", "Table 2", "Table 3", "Figure 2", "Figure 3",
                     "Figure 4", "Figure 5", "Figure 6", "Sec 5.1", "Sec 6.2",
                     "beyond paper"):
        assert expected in elements


def test_get_artifact_is_case_insensitive():
    assert get_artifact("table1") is REGISTRY["TABLE1"]
    assert get_artifact("Fig5") is REGISTRY["FIG5"]


def test_get_artifact_unknown_key():
    with pytest.raises(UnknownArtifactError, match="TABLE1"):
        get_artifact("TABLE9")


def test_scale_validation():
    assert Scale(1000).warmup_branches == 250
    assert Scale.quick().n_branches < Scale.full().n_branches
    with pytest.raises(ValueError):
        Scale(0)


def test_every_artifact_builds_with_finite_cells(tmp_path):
    """The whole registry at tiny scale: finite cells, non-empty text,
    every expected paper cell measured (the `repro paper` contract)."""
    service = SweepService(workers=1, cache=ResultCache(tmp_path / "sweeps"))
    for key in ARTIFACT_KEYS:
        result = build_artifact(key, service, TINY)
        assert result.validate() == [], key
        assert result.key == key
        # Cells with paper expectations produce a delta row each.
        assert set(result.deltas) == set(result.spec.paper_values), key


def test_overlapping_artifacts_share_sweeps():
    """TABLE1 and FIG2 request identical CBP-1 grids: TABLE1's executed
    plan serves them, so FIG2 plans nothing new."""
    service = SweepService(workers=1)
    build_artifact("TABLE1", service, TINY)
    jobs_after_table1 = service.n_jobs
    build_artifact("FIG2", service, TINY)
    # FIG2's three CBP-1 sweeps were all planned already: no new jobs.
    assert service.n_jobs == jobs_after_table1


def test_suite_grid_matches_per_trace_run_trace():
    """Registry grids reproduce one run_trace per trace bit-for-bit."""
    from repro.sim.runner import get_trace, run_trace

    scale = Scale(1200)
    service = SweepService(workers=1)
    names = ("INT-1", "SERV-1")
    new = service.results(suite_grid("CBP1", "16K", scale=scale, names=names))
    old = [
        run_trace(get_trace(name, scale.n_branches), size="16K",
                  warmup_branches=scale.warmup_branches)
        for name in names
    ]
    assert new == old
