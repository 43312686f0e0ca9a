"""The artifact registry: every paper element, declared exactly once.

Each entry pairs its declared sweep grids (built through
:func:`suite_grid` / :func:`observation_grid`, the single definition of
every experiment grid in the repository — the benchmark suite consumes
the same functions) with an aggregation into named numeric cells and the
paper's expected values where the paper prints exact numbers.  One
``_*_grids(scale)`` function per artifact is both its declaration
(``ArtifactSpec.grid_map``) and the map its builder reads back, so the
two cannot drift apart.

Registered artifacts:

====================  =======================================================
``TABLE1``            Table 1 — configurations and per-suite misp/KI
``TABLE2``            Table 2 — three confidence levels, modified automaton
``TABLE3``            Table 3 — adaptive saturation probability (§6.2)
``FIG2`` / ``FIG3``   Figures 2/3 — class distributions, CBP-1 / CBP-2
``FIG4`` / ``FIG6``   Figures 4/6 — per-class MKP, standard / modified
``FIG5``              Figure 5 — class distributions, modified automaton
``SEC51_BIM``         §5.1 — raw BIM-class misprediction rate per trace
``SEC62_PROB``        §6.2 — saturation probability sweep
``ABL_ALT_ON_NA``     §3.1 — USE_ALT_ON_NA on/off
``ABL_BIM_WINDOW``    §5.1.2 — medium-conf-bim window W
``ABL_CTR_WIDTH``     §6 — 4-bit counters vs probabilistic saturation
``APP_FETCH_GATING``  beyond paper — confidence-directed fetch gating
``APP_SMT_FETCH``     beyond paper — confidence-directed SMT fetch policy
``SCENARIO_ZOO``      beyond paper — trace-source scenario zoo
====================  =======================================================

Absolute cell values differ from the paper (synthetic traces, reduced
scale); the registry's ``paper_values`` drive the repro-vs-paper delta
report, while the *shape* guarantees live in the benchmark assertions.
"""

from __future__ import annotations

from repro.apps.fetch_gating import FetchGatingModel, GatingPolicy
from repro.apps.smt_policy import SmtFetchModel, SmtPolicy
from repro.artifacts.service import SweepService
from repro.artifacts.spec import ArtifactPayload, ArtifactSpec, Scale, no_grids
from repro.confidence.classes import (
    CLASS_ORDER,
    LEVEL_ORDER,
    PredictionClass,
)
from repro.confidence.estimator import TageConfidenceEstimator
from repro.predictors.tage.config import TageConfig
from repro.predictors.tage.predictor import TagePredictor
from repro.sim.report import (
    format_confidence_table,
    format_distribution_figure,
    format_mprate_figure,
    format_table1,
    render_table,
)
from repro.sim.observe import observe_trace
from repro.sim.runner import get_trace
from repro.sim.stats import SuiteSummary, summarize
from repro.sweep.spec import EstimatorSpec, ExperimentSpec, PredictorSpec
from repro.traces.sources import ZOO_SOURCE_NAMES
from repro.traces.suites import (
    CBP1_TRACE_NAMES,
    CBP2_TRACE_NAMES,
    FIGURE4_TRACE_NAMES,
)

__all__ = [
    "SIZES",
    "SUITES",
    "REGISTRY",
    "ARTIFACT_KEYS",
    "UnknownArtifactError",
    "get_artifact",
    "observation_grid",
    "suite_grid",
    "zoo_observation_grid",
    "zoo_adversarial_grid",
]

#: The paper's TAGE storage presets and trace suites.
SIZES = ("16K", "64K", "256K")
SUITES = ("CBP1", "CBP2")

_SUITE_TRACES = {"CBP1": CBP1_TRACE_NAMES, "CBP2": CBP2_TRACE_NAMES}

#: BIM-class MKP under which a trace counts as "clean" in SEC51_BIM.
#: The paper uses 1 MKP at ~30 M instructions; reduced-scale runs keep
#: some warm-up noise, so the threshold is scaled up accordingly.
CLEAN_BIM_MKP = 8.0


class UnknownArtifactError(ValueError):
    """An artifact key that is not in the registry."""

    def __init__(self, key: str) -> None:
        super().__init__(
            f"unknown artifact {key!r}; choose from {', '.join(ARTIFACT_KEYS)}"
        )
        self.key = key


# ---------------------------------------------------------------------------
# Grid builders — the single definition of every experiment grid.
# ---------------------------------------------------------------------------


def observation_grid(
    traces: tuple[str, ...],
    size: str,
    *,
    scale: Scale,
    automaton: str = "standard",
    sat_prob_log2: int = 7,
    adaptive: bool = False,
    bim_miss_window: int | None = None,
    group: str | None = None,
    **config_overrides,
) -> ExperimentSpec:
    """One TAGE preset × the storage-free observation estimator × traces.

    This is the grid shape behind every table/figure of the paper: the
    spec carries no base seed, so every component keeps its fixed
    built-in seeds and results are identical to one
    :func:`~repro.sim.runner.run_trace` per trace, for any worker count.  ``config_overrides`` are
    :class:`TageConfig` field overrides (``ctr_bits``,
    ``use_alt_on_na_enabled``, ...); ``bim_miss_window`` parameterizes
    the estimator only; ``group`` labels the trace set in the spec name
    (progress lines) — :func:`suite_grid` passes the suite.
    """
    estimator_params = {}
    if bim_miss_window is not None:
        estimator_params["bim_miss_window"] = bim_miss_window
    name = f"paper-{group or 'mixed'}-{size}-{automaton}"
    if sat_prob_log2 != 7:
        name += f"-p{sat_prob_log2}"
    if adaptive:
        name += "-adaptive"
    if config_overrides or estimator_params:
        name += "-variant"
    name += f"-{len(traces)}t"
    return ExperimentSpec(
        name=name,
        predictors=(
            PredictorSpec.of(
                "tage",
                size=size,
                automaton=automaton,
                sat_prob_log2=sat_prob_log2,
                **config_overrides,
            ),
        ),
        estimators=(EstimatorSpec.of("tage", **estimator_params),),
        traces=tuple(traces),
        n_branches=scale.n_branches,
        warmup_branches=scale.warmup_branches,
        adaptive=adaptive,
    )


def suite_grid(
    suite: str,
    size: str,
    *,
    scale: Scale,
    names: tuple[str, ...] | None = None,
    **kwargs,
) -> ExperimentSpec:
    """An :func:`observation_grid` over a whole suite (or a subset)."""
    return observation_grid(
        names or _SUITE_TRACES[suite], size, scale=scale, group=suite, **kwargs
    )


# ---------------------------------------------------------------------------
# Cell helpers.
# ---------------------------------------------------------------------------


def _level_cells(summaries: dict[tuple[str, str], SuiteSummary]) -> dict[str, float]:
    """Tables 2/3 cells: Pcov/MPcov/MPrate per (size, suite, level)."""
    cells: dict[str, float] = {}
    for (size, suite), summary in summaries.items():
        for level in LEVEL_ORDER:
            pcov, mpcov, mprate = summary.level_row(level)
            base = f"{size}/{suite}/{level.value}"
            cells[f"{base}/pcov"] = pcov
            cells[f"{base}/mpcov"] = mpcov
            cells[f"{base}/mprate"] = mprate
    return cells


def _distribution_cells(results_by_key: dict[str, list]) -> dict[str, float]:
    """Figure-series cells: pooled per-class coverage + mean misp/KI."""
    cells: dict[str, float] = {}
    for key, results in results_by_key.items():
        summary = summarize(results)
        cells[f"{key}/mpki"] = summary.mean_mpki
        for cls in CLASS_ORDER:
            cells[f"{key}/pcov/{cls.value}"] = summary.classes.pcov(cls)
    return cells


def _mprate_cells(results: list) -> dict[str, float]:
    """Figure 4/6 cells: pooled per-class MKP + suite mean."""
    summary = summarize(results)
    cells = {f"mprate/{cls.value}": summary.classes.mprate(cls) for cls in CLASS_ORDER}
    cells["mean_mkp"] = summary.mean_mkp
    return cells


def _confidence_paper(
    values: dict[tuple[str, str], tuple[tuple[float, float, float], ...]],
) -> dict[str, float]:
    """Expand a paper Table 2/3 into flat delta cells."""
    paper: dict[str, float] = {}
    for (size, suite), levels in values.items():
        for level, (pcov, mpcov, mprate) in zip(LEVEL_ORDER, levels):
            base = f"{size}/{suite}/{level.value}"
            paper[f"{base}/pcov"] = pcov
            paper[f"{base}/mpcov"] = mpcov
            paper[f"{base}/mprate"] = mprate
    return paper


_BIM_CLASSES = tuple(cls for cls in PredictionClass if cls.is_bimodal)


def _bim_rate(result) -> float:
    """MKP of the pooled raw BIM classes of one trace result (§5.1)."""
    predictions = sum(result.classes.predictions(cls) for cls in _BIM_CLASSES)
    misses = sum(result.classes.mispredictions(cls) for cls in _BIM_CLASSES)
    return 1000.0 * misses / predictions if predictions else 0.0


# ---------------------------------------------------------------------------
# Table builders.
# ---------------------------------------------------------------------------


def _suite_grids(scale: Scale, **kwargs) -> dict[tuple[str, str], ExperimentSpec]:
    """One :func:`suite_grid` per (size, suite) pair of the paper."""
    return {
        (size, suite): suite_grid(suite, size, scale=scale, **kwargs)
        for size in SIZES
        for suite in SUITES
    }


def _summaries(service: SweepService, grids: dict) -> dict:
    """Pooled suite summary of every grid of a label -> grid map."""
    return {label: service.summary(spec) for label, spec in grids.items()}


def _results(service: SweepService, grids: dict) -> dict:
    """Per-trace results of every grid of a label -> grid map."""
    return {label: service.results(spec) for label, spec in grids.items()}


def _build_table1(service: SweepService, scale: Scale) -> ArtifactPayload:
    summaries = _summaries(service, _suite_grids(scale))
    presets = {size: TageConfig.preset(size) for size in SIZES}
    text = format_table1(
        summaries,
        storage_bits={size: preset.storage_bits() for size, preset in presets.items()},
        history_lengths={size: preset.history_lengths for size, preset in presets.items()},
    )
    cells: dict[str, float] = {}
    for size in SIZES:
        cells[f"{size}/storage_bits"] = presets[size].storage_bits()
        for suite in SUITES:
            cells[f"{size}/{suite}/mpki"] = summaries[(size, suite)].mean_mpki
    return ArtifactPayload(text=text, cells=cells, data=summaries)


def _table2_grids(scale: Scale) -> dict[tuple[str, str], ExperimentSpec]:
    return _suite_grids(scale, automaton="probabilistic")


def _table3_grids(scale: Scale) -> dict[tuple[str, str], ExperimentSpec]:
    return _suite_grids(scale, adaptive=True)


def _build_table2(service: SweepService, scale: Scale) -> ArtifactPayload:
    summaries = _summaries(service, _table2_grids(scale))
    text = format_confidence_table(
        summaries,
        title="Table 2 data - three confidence levels, modified automaton (p=1/128)",
    )
    return ArtifactPayload(text=text, cells=_level_cells(summaries), data=summaries)


def _build_table3(service: SweepService, scale: Scale) -> ArtifactPayload:
    summaries = _summaries(service, _table3_grids(scale))
    text = format_confidence_table(
        summaries,
        title="Table 3 data - adaptive saturation probability, target < 10 MKP on high conf",
    )
    return ArtifactPayload(text=text, cells=_level_cells(summaries), data=summaries)


# ---------------------------------------------------------------------------
# Figure builders.
# ---------------------------------------------------------------------------


def _distribution_grids(suite: str):
    def grids(scale: Scale) -> dict[str, ExperimentSpec]:
        return {size: suite_grid(suite, size, scale=scale) for size in SIZES}

    return grids


def _build_distribution_figure(suite: str, figure: str):
    def build(service: SweepService, scale: Scale) -> ArtifactPayload:
        by_size = _results(service, _distribution_grids(suite)(scale))
        sections = [
            format_distribution_figure(
                results,
                title=f"Figure {figure} data - {size} predictor, {suite.replace('CBP', 'CBP-')}",
            )
            for size, results in by_size.items()
        ]
        cells = _distribution_cells(dict(by_size))
        return ArtifactPayload(text="\n\n".join(sections), cells=cells, data=by_size)

    return build


#: Figure 5's three panels: (size, suite) with probabilistic saturation.
FIG5_PANELS = (("16K", "CBP1"), ("64K", "CBP2"), ("256K", "CBP1"))


def _fig5_grids(scale: Scale) -> dict[tuple[str, str], ExperimentSpec]:
    return {
        (size, suite): suite_grid(suite, size, scale=scale, automaton="probabilistic")
        for size, suite in FIG5_PANELS
    }


def _build_fig5(service: SweepService, scale: Scale) -> ArtifactPayload:
    panels = _results(service, _fig5_grids(scale))
    sections = [
        format_distribution_figure(
            results,
            title=f"Figure 5 data - {size} predictor, {suite}, modified automaton (p=1/128)",
        )
        for (size, suite), results in panels.items()
    ]
    cells = _distribution_cells(
        {f"{size}/{suite}": results for (size, suite), results in panels.items()}
    )
    return ArtifactPayload(text="\n\n".join(sections), cells=cells, data=panels)


def _mprate_grids(automaton: str):
    def grids(scale: Scale) -> dict[str, ExperimentSpec]:
        return {
            automaton: suite_grid(
                "CBP2", "64K", scale=scale, names=FIGURE4_TRACE_NAMES, automaton=automaton
            )
        }

    return grids


def _build_mprate_figure(automaton: str, figure: str, subtitle: str):
    def build(service: SweepService, scale: Scale) -> ArtifactPayload:
        (results,) = _results(service, _mprate_grids(automaton)(scale)).values()
        text = format_mprate_figure(
            results, title=f"Figure {figure} data - MKP per class, 64Kbits, {subtitle}"
        )
        return ArtifactPayload(text=text, cells=_mprate_cells(results), data=results)

    return build


# ---------------------------------------------------------------------------
# Running-text builders (§5.1 / §6.2).
# ---------------------------------------------------------------------------


def _build_sec51(service: SweepService, scale: Scale) -> ArtifactPayload:
    rows: dict[tuple[str, str], tuple[float, float]] = {}
    for (size, _), results in _results(service, _suite_grids(scale)).items():
        for result in results:
            rows[(size, result.trace_name)] = (_bim_rate(result), result.mkp)
    table_rows = [
        [size, trace, f"{bim:.1f}", f"{overall:.1f}"]
        for (size, trace), (bim, overall) in rows.items()
    ]
    text = render_table(
        ["size", "trace", "BIM-class MKP", "overall MKP"],
        table_rows,
        title=(
            "Sec 5.1 data - raw BIM-class misprediction rate "
            f"({scale.n_branches} branches/trace)"
        ),
    )
    cells: dict[str, float] = {}
    for size in SIZES:
        clean = sum(
            1 for (s, _), (bim, _) in rows.items() if s == size and bim < CLEAN_BIM_MKP
        )
        cells[f"{size}/clean_traces"] = clean
        cells[f"{size}/n_traces"] = sum(1 for (s, _) in rows if s == size)
    return ArtifactPayload(text=text, cells=cells, data=rows)


#: §6.2 saturation probabilities 1/2^k, ordered rare -> frequent.
SEC62_SWEEP_LOG2 = (10, 7, 4, 2)


def _sec62_grids(scale: Scale) -> dict[int, ExperimentSpec]:
    return {
        k: suite_grid(
            "CBP1", "16K", scale=scale, automaton="probabilistic", sat_prob_log2=k
        )
        for k in SEC62_SWEEP_LOG2
    }


def _build_sec62(service: SweepService, scale: Scale) -> ArtifactPayload:
    summaries = _summaries(service, _sec62_grids(scale))
    rows = []
    cells: dict[str, float] = {}
    for k, summary in summaries.items():
        pcov, mpcov, mprate = summary.level_row(LEVEL_ORDER[0])  # HIGH
        rows.append([f"1/{1 << k}", f"{pcov:.3f}", f"{mpcov:.3f}", f"{mprate:.1f}"])
        cells[f"p{1 << k}/high_pcov"] = pcov
        cells[f"p{1 << k}/high_mpcov"] = mpcov
        cells[f"p{1 << k}/high_mprate"] = mprate
    text = render_table(
        ["saturation prob", "high Pcov", "high MPcov", "high MPrate (MKP)"],
        rows,
        title="Sec 6.2 data - saturation probability sweep, 16Kbits, CBP-1",
    )
    return ArtifactPayload(text=text, cells=cells, data=summaries)


# ---------------------------------------------------------------------------
# Ablation builders (§3.1 / §5.1.2 / §6 running text).
# ---------------------------------------------------------------------------

ALT_ON_NA_TRACES = ("INT-1", "INT-4", "MM-2", "SERV-2", "300.twolf")


def _alt_on_na_grids(scale: Scale) -> dict[str, ExperimentSpec]:
    return {
        label: observation_grid(
            ALT_ON_NA_TRACES, "64K", scale=scale, use_alt_on_na_enabled=enabled
        )
        for label, enabled in (("enabled", True), ("disabled", False))
    }


def _build_alt_on_na(service: SweepService, scale: Scale) -> ArtifactPayload:
    variants = _summaries(service, _alt_on_na_grids(scale))
    rows = [
        [
            label,
            f"{summary.mean_mpki:.3f}",
            f"{summary.classes.mprate(PredictionClass.WTAG):.0f}",
        ]
        for label, summary in variants.items()
    ]
    text = render_table(
        ["USE_ALT_ON_NA", "mean misp/KI", "Wtag MPrate (MKP)"],
        rows,
        title="Ablation - USE_ALT_ON_NA on/off (64Kbits)",
    )
    cells = {}
    for label, summary in variants.items():
        cells[f"{label}/mpki"] = summary.mean_mpki
        cells[f"{label}/wtag_mprate"] = summary.classes.mprate(PredictionClass.WTAG)
    return ArtifactPayload(text=text, cells=cells, data=variants)


BIM_WINDOWS = (0, 4, 8, 16)
BIM_WINDOW_TRACES = ("SERV-1", "SERV-3", "INT-2", "MM-2")


def _bim_window_grids(scale: Scale) -> dict[int, ExperimentSpec]:
    return {
        window: observation_grid(
            BIM_WINDOW_TRACES, "16K", scale=scale, bim_miss_window=window
        )
        for window in BIM_WINDOWS
    }


def _build_bim_window(service: SweepService, scale: Scale) -> ArtifactPayload:
    sweeps = _summaries(service, _bim_window_grids(scale))
    rows = []
    cells: dict[str, float] = {}
    for window, summary in sweeps.items():
        classes = summary.classes
        rows.append(
            [
                str(window),
                f"{classes.pcov(PredictionClass.HIGH_CONF_BIM):.3f}",
                f"{classes.mprate(PredictionClass.HIGH_CONF_BIM):.1f}",
                f"{classes.pcov(PredictionClass.MEDIUM_CONF_BIM):.3f}",
                f"{classes.mprate(PredictionClass.MEDIUM_CONF_BIM):.1f}",
            ]
        )
        cells[f"w{window}/hcb_pcov"] = classes.pcov(PredictionClass.HIGH_CONF_BIM)
        cells[f"w{window}/hcb_mprate"] = classes.mprate(PredictionClass.HIGH_CONF_BIM)
        cells[f"w{window}/mcb_pcov"] = classes.pcov(PredictionClass.MEDIUM_CONF_BIM)
        cells[f"w{window}/mcb_mprate"] = classes.mprate(PredictionClass.MEDIUM_CONF_BIM)
    text = render_table(
        ["W", "hcb Pcov", "hcb MPrate", "mcb Pcov", "mcb MPrate"],
        rows,
        title="Ablation - medium-conf-bim window W (16Kbits, capacity-stressed traces)",
    )
    return ArtifactPayload(text=text, cells=cells, data=sweeps)


CTR_WIDTH_TRACES = ("INT-1", "INT-3", "MM-1", "MM-3", "SERV-1")

#: (cell label, rendered label, grid keyword overrides).
_CTR_WIDTH_VARIANTS = (
    ("3bit_standard", "3-bit standard", {}),
    ("4bit_standard", "4-bit standard", {"ctr_bits": 4}),
    ("3bit_prob128", "3-bit prob 1/128", {"automaton": "probabilistic"}),
)


def _ctr_width_grids(scale: Scale) -> dict[str, ExperimentSpec]:
    return {
        label: observation_grid(CTR_WIDTH_TRACES, "64K", scale=scale, **overrides)
        for label, _, overrides in _CTR_WIDTH_VARIANTS
    }


def _build_ctr_width(service: SweepService, scale: Scale) -> ArtifactPayload:
    variants = _summaries(service, _ctr_width_grids(scale))
    rows = []
    cells: dict[str, float] = {}
    for label, shown, _ in _CTR_WIDTH_VARIANTS:
        summary = variants[label]
        stag_rate = summary.classes.mprate(PredictionClass.STAG)
        stag_cov = summary.classes.pcov(PredictionClass.STAG)
        rows.append([shown, f"{summary.mean_mpki:.2f}", f"{stag_rate:.1f}", f"{stag_cov:.3f}"])
        cells[f"{label}/mpki"] = summary.mean_mpki
        cells[f"{label}/stag_mprate"] = stag_rate
        cells[f"{label}/stag_pcov"] = stag_cov
    text = render_table(
        ["variant", "mean misp/KI", "Stag MPrate (MKP)", "Stag Pcov"],
        rows,
        title="Ablation - counter widening vs probabilistic saturation (64Kbits)",
    )
    return ArtifactPayload(text=text, cells=cells, data=variants)


# ---------------------------------------------------------------------------
# Scenario-zoo builder (trace-source layer).
# ---------------------------------------------------------------------------

#: Synthetic baseline the adversarial JRS grid is compared against.
ZOO_BASELINE_TRACE = "INT-1"

#: What each zoo source stresses (rendered into the artifact text).
_ZOO_STRESSES = {
    "zoo.markov": "two-state Markov chains (run-length structure)",
    "zoo.loopnest": "nested loop trip counts (history depth)",
    "zoo.phase": "phase changes between workload segments",
    "zoo.interference": "context-switch interleaving, shared PC window",
    "zoo.jrs-inversion": "JRS/EJRS confidence inversion (searched period)",
    "zoo.tag-storm": "TAGE tag aliasing / allocation churn",
    "zoo.xor": "linearly-inseparable history function (perceptron)",
}


def zoo_observation_grid(*, scale: Scale) -> ExperimentSpec:
    """Every zoo source × the 16 Kbit TAGE observation cell."""
    return ExperimentSpec(
        name=f"zoo-observation-16K-{len(ZOO_SOURCE_NAMES)}t",
        predictors=(PredictorSpec.of("tage", size="16K"),),
        estimators=(EstimatorSpec.of("tage"),),
        traces=ZOO_SOURCE_NAMES,
        n_branches=scale.n_branches,
        warmup_branches=scale.warmup_branches,
    )


def zoo_adversarial_grid(*, scale: Scale) -> ExperimentSpec:
    """gshare × JRS/EJRS on the inversion source vs the synthetic baseline."""
    return ExperimentSpec(
        name="zoo-adversarial-jrs",
        predictors=(PredictorSpec.of("gshare"),),
        estimators=(EstimatorSpec.of("jrs"), EstimatorSpec.of("ejrs")),
        traces=(ZOO_BASELINE_TRACE, "zoo.jrs-inversion"),
        n_branches=scale.n_branches,
        warmup_branches=scale.warmup_branches,
    )


def _zoo_grids(scale: Scale) -> dict[str, ExperimentSpec]:
    return {
        "observation": zoo_observation_grid(scale=scale),
        "adversarial": zoo_adversarial_grid(scale=scale),
    }


def _build_scenario_zoo(service: SweepService, scale: Scale) -> ArtifactPayload:
    grids = _zoo_grids(scale)
    results = service.results(grids["observation"])
    high = LEVEL_ORDER[0]
    obs_rows = []
    cells: dict[str, float] = {}
    for result in results:
        summary = summarize([result])
        pcov, _, mprate = summary.level_row(high)
        obs_rows.append([
            result.trace_name,
            _ZOO_STRESSES.get(result.trace_name, "-"),
            f"{result.mpki:.2f}", f"{pcov:.3f}", f"{mprate:.1f}",
        ])
        cells[f"{result.trace_name}/mpki"] = result.mpki
        cells[f"{result.trace_name}/high_pcov"] = pcov
        cells[f"{result.trace_name}/high_mprate"] = mprate
    observation_text = render_table(
        ["source", "stresses", "misp/KI", "high Pcov", "high MPrate (MKP)"],
        obs_rows,
        title="Beyond paper - scenario zoo, TAGE 16Kbits observation",
    )

    adversarial_rows = service.sweep(grids["adversarial"]).table.rows()
    adv_rows = []
    for row in adversarial_rows:
        # Empty high-confidence sets count as precision 1.0 (no
        # high-confidence misses) so tiny-scale cells stay finite.
        pvp = 1.0 if row["pvp"] is None else row["pvp"]
        adv_rows.append([
            row["estimator"], row["trace"], f"{row['mpki']:.2f}", f"{pvp:.3f}",
        ])
        cells[f"{row['estimator']}/{row['trace']}/pvp"] = pvp
    adversarial_text = render_table(
        ["estimator", "trace", "misp/KI", "PVP (high-conf precision)"],
        adv_rows,
        title=(
            "Beyond paper - adversarial confidence inversion, gshare + "
            f"JRS/EJRS ({ZOO_BASELINE_TRACE} baseline)"
        ),
    )
    return ArtifactPayload(
        text=observation_text + "\n\n" + adversarial_text,
        cells=cells,
        data={"observation": results, "adversarial": adversarial_rows},
    )


# ---------------------------------------------------------------------------
# Beyond-paper application builders (apps layer).
# ---------------------------------------------------------------------------

#: (cell label, gating policy) pairs swept by APP_FETCH_GATING.
_GATING_POLICIES = (
    ("graded-t1", GatingPolicy(gate_threshold=1.0, low_weight=1.0, medium_weight=0.25)),
    ("graded-t2", GatingPolicy(gate_threshold=2.0, low_weight=1.0, medium_weight=0.25)),
    ("graded-t4", GatingPolicy(gate_threshold=4.0, low_weight=1.0, medium_weight=0.25)),
    ("binary-t2", GatingPolicy(gate_threshold=2.0, low_weight=1.0, medium_weight=0.0)),
)


def _build_fetch_gating(service: SweepService, scale: Scale) -> ArtifactPayload:
    trace = get_trace("300.twolf", scale.n_branches)
    stats_by: dict[str, object] = {}
    # All four policies replay the same (trace, predictor, estimator)
    # observation stream — computed once, on the service's backend.
    predictor = TagePredictor(TageConfig.medium())
    estimator = TageConfidenceEstimator(predictor)
    stream = observe_trace(trace, predictor, estimator, backend=service.backend)
    for label, policy in _GATING_POLICIES:
        model = FetchGatingModel(
            predictor, estimator, policy=policy, resolution_latency=12
        )
        stats_by[label] = model.replay(stream, trace.insts)
    rows = [
        [
            label,
            f"{stats.gating_rate:.3f}",
            f"{stats.waste_reduction:.3f}",
            f"{stats.useful_loss_rate:.4f}",
        ]
        for label, stats in stats_by.items()
    ]
    text = render_table(
        ["policy", "gating rate", "waste avoided", "useful lost"],
        rows,
        title="Beyond paper - confidence-directed fetch gating (300.twolf)",
    )
    cells: dict[str, float] = {}
    for label, stats in stats_by.items():
        cells[f"{label}/gating_rate"] = stats.gating_rate
        cells[f"{label}/waste_reduction"] = stats.waste_reduction
        cells[f"{label}/useful_loss_rate"] = stats.useful_loss_rate
    return ArtifactPayload(text=text, cells=cells, data=stats_by)


#: The SMT scenario: a predictable FP workload against a noisy one.
SMT_THREAD_TRACES = ("FP-1", "300.twolf")


def _build_smt_fetch(service: SweepService, scale: Scale) -> ArtifactPayload:
    def make_threads():
        threads = []
        for name in SMT_THREAD_TRACES:
            trace = get_trace(name, scale.n_branches)
            predictor = TagePredictor(TageConfig.small())
            estimator = TageConfidenceEstimator(predictor)
            threads.append((trace, predictor, estimator))
        return threads

    # A fixed cycle budget makes this a bandwidth-allocation experiment.
    budget = scale.n_branches * 12 // 10
    stats_by: dict[str, object] = {}
    # Streams are policy-invariant: compute each thread's once (on the
    # service's backend) and replay both arbitration policies over them.
    threads = make_threads()
    streams = SmtFetchModel(
        threads, resolution_latency=12, max_cycles=budget
    ).observe_threads(backend=service.backend)
    for policy in (SmtPolicy.ROUND_ROBIN, SmtPolicy.CONFIDENCE):
        model = SmtFetchModel(
            threads, policy=policy, resolution_latency=12, max_cycles=budget
        )
        stats_by[policy.value] = model.replay(streams)
    rows = []
    cells: dict[str, float] = {}
    for label, stats in stats_by.items():
        useful = stats.fetched_instructions - stats.wrong_path_instructions
        rows.append(
            [
                label,
                str(useful),
                f"{stats.wrong_path_fraction:.4f}",
                f"{stats.fairness:.3f}",
            ]
        )
        cells[f"{label}/useful_instructions"] = useful
        cells[f"{label}/wrong_path_fraction"] = stats.wrong_path_fraction
        cells[f"{label}/fairness"] = stats.fairness
    text = render_table(
        ["policy", "useful insts", "wrong-path fraction", "fairness"],
        rows,
        title=(
            "Beyond paper - SMT fetch arbitration "
            f"({' + '.join(SMT_THREAD_TRACES)}, {budget} cycle budget)"
        ),
    )
    return ArtifactPayload(text=text, cells=cells, data=stats_by)


# ---------------------------------------------------------------------------
# The registry itself.
# ---------------------------------------------------------------------------

_TABLE1_PAPER = {
    "16K/storage_bits": 16384,
    "64K/storage_bits": 65536,
    "256K/storage_bits": 262144,
    "16K/CBP1/mpki": 4.21,
    "16K/CBP2/mpki": 4.61,
    "64K/CBP1/mpki": 2.54,
    "64K/CBP2/mpki": 3.87,
    "256K/CBP1/mpki": 2.18,
    "256K/CBP2/mpki": 3.47,
}

_TABLE2_PAPER = _confidence_paper(
    {
        ("16K", "CBP1"): ((0.690, 0.128, 7), (0.254, 0.455, 72), (0.056, 0.416, 306)),
        ("16K", "CBP2"): ((0.790, 0.078, 3), (0.163, 0.478, 98), (0.046, 0.443, 328)),
        ("64K", "CBP1"): ((0.781, 0.096, 3), (0.180, 0.434, 59), (0.038, 0.470, 304)),
        ("64K", "CBP2"): ((0.818, 0.056, 2), (0.095, 0.466, 82), (0.042, 0.478, 328)),
        ("256K", "CBP1"): ((0.802, 0.060, 2), (0.162, 0.442, 57), (0.034, 0.498, 302)),
        ("256K", "CBP2"): ((0.826, 0.040, 1), (0.135, 0.469, 88), (0.038, 0.491, 325)),
    }
)

#: Table 3 prints deltas versus Table 2; the paper's worked example is
#: the 16 Kbits CBP-1 high-confidence coverage (0.690 -> 0.758).
_TABLE3_PAPER = {"16K/CBP1/high/pcov": 0.758}

_SEC51_PAPER = {"64K/clean_traces": 20, "256K/clean_traces": 24}

_SEC62_PAPER = {
    "p128/high_pcov": 0.69,
    "p128/high_mpcov": 0.128,
    "p128/high_mprate": 7,
    "p16/high_pcov": 0.79,
    "p16/high_mpcov": 0.223,
    "p16/high_mprate": 10,
}


def _spec(key, title, paper_element, kind, description, build, paper_values=None,
          grids=no_grids):
    return ArtifactSpec(
        key=key,
        title=title,
        paper_element=paper_element,
        kind=kind,
        description=description,
        build=build,
        paper_values=paper_values or {},
        grid_map=grids,
    )


#: Every registered artifact, in report order.
REGISTRY: dict[str, ArtifactSpec] = {
    spec.key: spec
    for spec in (
        _spec(
            "TABLE1",
            "Simulated configurations and per-suite misp/KI",
            "Table 1",
            "table",
            "Storage presets (16K/64K/256K bits) with their table counts, "
            "history ranges and mean misprediction rates on CBP-1/CBP-2.",
            _build_table1,
            _TABLE1_PAPER,
            grids=_suite_grids,
        ),
        _spec(
            "TABLE2",
            "Three confidence levels, modified automaton (p=1/128)",
            "Table 2",
            "table",
            "Pcov-MPcov (MPrate) per confidence level for every "
            "(size, suite) pair with probabilistic counter saturation.",
            _build_table2,
            _TABLE2_PAPER,
            grids=_table2_grids,
        ),
        _spec(
            "TABLE3",
            "Adaptive saturation probability (target < 10 MKP)",
            "Table 3",
            "table",
            "The Sec 6.2 controller trades a bounded high-confidence "
            "misprediction rate for extra high-confidence coverage.",
            _build_table3,
            _TABLE3_PAPER,
            grids=_table3_grids,
        ),
        _spec(
            "FIG2",
            "Class distributions per trace, CBP-1",
            "Figure 2",
            "figure",
            "Per-class prediction coverage and misp/KI contribution for "
            "each CBP-1 trace at all three predictor sizes.",
            _build_distribution_figure("CBP1", "2"),
            grids=_distribution_grids("CBP1"),
        ),
        _spec(
            "FIG3",
            "Class distributions per trace, CBP-2",
            "Figure 3",
            "figure",
            "Per-class prediction coverage and misp/KI contribution for "
            "each CBP-2 trace at all three predictor sizes.",
            _build_distribution_figure("CBP2", "3"),
            grids=_distribution_grids("CBP2"),
        ),
        _spec(
            "FIG4",
            "MKP per class, standard automaton",
            "Figure 4",
            "figure",
            "Per-class misprediction rates on the Figure-4 CBP-2 subset "
            "(64 Kbits): Stag sits near the application average, which "
            "motivates the modified automaton.",
            _build_mprate_figure("standard", "4", "standard automaton"),
            grids=_mprate_grids("standard"),
        ),
        _spec(
            "FIG5",
            "Class distributions, modified automaton",
            "Figure 5",
            "figure",
            "The three paper panels (16K/CBP-1, 64K/CBP-2, 256K/CBP-1) "
            "with 1/128 probabilistic saturation.",
            _build_fig5,
            grids=_fig5_grids,
        ),
        _spec(
            "FIG6",
            "MKP per class, modified automaton",
            "Figure 6",
            "figure",
            "Versus Figure 4: probabilistic saturation purifies the Stag "
            "class to a very low misprediction rate.",
            _build_mprate_figure("probabilistic", "6", "modified automaton"),
            grids=_mprate_grids("probabilistic"),
        ),
        _spec(
            "SEC51_BIM",
            "Raw BIM-class misprediction rate per trace",
            "Sec 5.1",
            "text",
            "Why the BIM split exists: the bimodal component is nearly "
            "clean on most traces but reaches the global misprediction "
            "rate on the 16K server traces.  Clean threshold scaled to "
            f"{CLEAN_BIM_MKP} MKP for reduced-scale runs (paper: 1 MKP).",
            _build_sec51,
            _SEC51_PAPER,
            grids=_suite_grids,
        ),
        _spec(
            "SEC62_PROB",
            "Saturation probability sweep (1/1024 .. 1/4)",
            "Sec 6.2",
            "text",
            "High-confidence coverage and misprediction leakage as the "
            "saturation probability grows, 16 Kbits on CBP-1.",
            _build_sec62,
            _SEC62_PAPER,
            grids=_sec62_grids,
        ),
        _spec(
            "ABL_ALT_ON_NA",
            "USE_ALT_ON_NA on/off",
            "Sec 3.1",
            "ablation",
            "Disabling the alternate-prediction monitor must not improve "
            "accuracy; weak tagged entries stay unreliable either way.",
            _build_alt_on_na,
            grids=_alt_on_na_grids,
        ),
        _spec(
            "ABL_BIM_WINDOW",
            "Medium-conf-bim window W sweep",
            "Sec 5.1.2",
            "ablation",
            "Growing W cleans high-conf-bim at the cost of high-confidence "
            "coverage; W=0 disables the medium class entirely.",
            _build_bim_window,
            grids=_bim_window_grids,
        ),
        _spec(
            "ABL_CTR_WIDTH",
            "4-bit counters vs probabilistic saturation",
            "Sec 6",
            "ablation",
            "Widening the tagged counter neither purifies Stag the way "
            "probabilistic saturation does nor improves accuracy.",
            _build_ctr_width,
            grids=_ctr_width_grids,
        ),
        _spec(
            "APP_FETCH_GATING",
            "Confidence-directed fetch gating",
            "beyond paper",
            "application",
            "Manne-style pipeline gating driven by the three-level "
            "estimator on a noisy trace: wasted fetch avoided versus "
            "useful fetch lost across gating policies.",
            _build_fetch_gating,
        ),
        _spec(
            "APP_SMT_FETCH",
            "Confidence-directed SMT fetch policy",
            "beyond paper",
            "application",
            "Two hardware threads share one fetch port; confidence "
            "arbitration fills a fixed cycle budget with more useful "
            "instructions than round-robin without starving either thread.",
            _build_smt_fetch,
        ),
        _spec(
            "SCENARIO_ZOO",
            "Trace-source scenario zoo",
            "beyond paper",
            "application",
            "The pluggable trace-source registry run end to end: every "
            "zoo source (markov chains, loop nests, phase changes, "
            "interference, and the adversarial estimator-breakers) "
            "through the 16 Kbit TAGE observation cell, plus the "
            "confidence-inversion source against gshare + JRS/EJRS — "
            "where high-confidence precision collapses versus the "
            "synthetic baseline.",
            _build_scenario_zoo,
            grids=_zoo_grids,
        ),
    )
}

#: Registry keys in report order.
ARTIFACT_KEYS: tuple[str, ...] = tuple(REGISTRY)


def get_artifact(key: str) -> ArtifactSpec:
    """Look up one artifact; keys are case-insensitive.

    Raises:
        UnknownArtifactError: for keys not in the registry.
    """
    spec = REGISTRY.get(key.upper())
    if spec is None:
        raise UnknownArtifactError(key)
    return spec
