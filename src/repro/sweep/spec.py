"""Experiment specifications: the declarative grid behind every sweep.

An :class:`ExperimentSpec` names three axes — predictors × confidence
estimators × traces — plus the scalar run options shared by every cell
(branch count, warm-up, adaptive control, base seed).  The spec is pure
data: frozen, hashable, and serializable to a canonical JSON form whose
SHA-256 digest (:meth:`ExperimentSpec.spec_hash`) keys the on-disk result
cache.  Expansion into concrete :class:`JobSpec` cells lives in
:mod:`repro.sweep.grid`; execution in :mod:`repro.sweep.executor`.

Predictor and estimator axes are themselves small specs
(:class:`PredictorSpec`, :class:`EstimatorSpec`) that name a *kind* plus
keyword parameters, so a grid can mix TAGE presets with the gshare /
perceptron / O-GEHL baselines and the storage-free TAGE observation with
the storage-based JRS estimators — exactly the cross-products the
paper's §2.2/§4 comparisons need.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field, replace

from repro.sim.backends import DEFAULT_BACKEND, validate_backend

__all__ = [
    "PREDICTOR_KINDS",
    "ESTIMATOR_KINDS",
    "PredictorSpec",
    "EstimatorSpec",
    "ExperimentSpec",
    "JobSpec",
    "LockstepBatch",
    "canonical_json",
    "stable_digest",
]

#: Predictor kinds the sweep layer can instantiate.
PREDICTOR_KINDS = ("tage", "gshare", "bimodal", "perceptron", "ogehl", "local")

#: The paper's TAGE storage presets (Table 1).
TAGE_SIZES = ("16K", "64K", "256K")

#: Estimator kinds: ``tage`` is the paper's storage-free 7-class
#: observation (multi-class engine); the others follow the binary
#: high/low protocol of :func:`repro.sim.engine.simulate_binary`.
ESTIMATOR_KINDS = ("tage", "jrs", "ejrs", "self")

#: Estimator kinds evaluated with the binary high/low engine.
BINARY_ESTIMATOR_KINDS = ("jrs", "ejrs", "self")


def canonical_json(value) -> str:
    """Serialize plain data to a canonical (sorted, compact) JSON string."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def stable_digest(value, length: int = 16) -> str:
    """Stable hex digest of any plain-data value (canonical JSON SHA-256)."""
    digest = hashlib.sha256(canonical_json(value).encode()).hexdigest()
    return digest[:length]


def _freeze_params(params: dict) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(params.items()))


def _thaw(value):
    """Undo JSON's tuple→list coercion so round-tripped specs stay
    hashable (journal resume rebuilds specs from their as_dict form)."""
    if isinstance(value, list):
        return tuple(_thaw(item) for item in value)
    return value


def _params_from_dict(pairs) -> tuple[tuple[str, object], ...]:
    return tuple(sorted((key, _thaw(value)) for key, value in pairs))


@dataclass(frozen=True)
class PredictorSpec:
    """One point on the predictor axis.

    Attributes:
        kind: one of :data:`PREDICTOR_KINDS`.
        size: TAGE storage preset (``"16K"`` / ``"64K"`` / ``"256K"``);
            TAGE only.
        automaton: TAGE 3-bit counter update rule (paper §6); TAGE only.
        sat_prob_log2: saturation probability ``1/2^k`` for the
            probabilistic automaton; TAGE only.
        params: extra constructor keywords — :class:`TageConfig` field
            overrides for TAGE, plain constructor arguments otherwise —
            stored as a sorted tuple of pairs so the spec stays hashable.
    """

    kind: str
    size: str | None = None
    automaton: str = "standard"
    sat_prob_log2: int = 7
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(
                f"unknown predictor kind {self.kind!r}; choose from {PREDICTOR_KINDS}"
            )
        if self.kind == "tage":
            if self.size is None:
                object.__setattr__(self, "size", "64K")
            elif self.size not in TAGE_SIZES:
                raise ValueError(
                    f"unknown TAGE size {self.size!r}; choose from {TAGE_SIZES}"
                )

    @classmethod
    def of(cls, kind: str, size: str | None = None, automaton: str = "standard",
           sat_prob_log2: int = 7, **params) -> "PredictorSpec":
        """Build a spec with free-form keyword parameters."""
        return cls(kind=kind, size=size, automaton=automaton,
                   sat_prob_log2=sat_prob_log2, params=_freeze_params(params))

    @classmethod
    def parse(cls, token: str) -> "PredictorSpec":
        """Parse a CLI token: ``tage-64K``, ``tage-16K-prob``, ``gshare`` ...

        The ``-prob`` suffix selects the §6 probabilistic automaton.
        """
        parts = token.split("-")
        if parts[0] == "tage":
            size = parts[1] if len(parts) > 1 else "64K"
            automaton = "probabilistic" if "prob" in parts[2:] else "standard"
            return cls.of("tage", size=size, automaton=automaton)
        if token in PREDICTOR_KINDS:
            return cls.of(token)
        raise ValueError(
            f"cannot parse predictor {token!r}; expected one of "
            f"{PREDICTOR_KINDS} or tage-<SIZE>[-prob]"
        )

    @classmethod
    def from_dict(cls, data: dict) -> "PredictorSpec":
        """Inverse of :meth:`as_dict` (journal/resume reconstruction)."""
        return cls(
            kind=data["kind"],
            size=data.get("size"),
            automaton=data.get("automaton", "standard"),
            sat_prob_log2=data.get("sat_prob_log2", 7),
            params=_params_from_dict(data.get("params", ())),
        )

    @property
    def label(self) -> str:
        """Short human-readable axis label (used in result rows)."""
        if self.kind == "tage":
            suffix = "-prob" if self.automaton == "probabilistic" else ""
            return f"tage-{self.size}{suffix}"
        return self.kind

    def as_dict(self) -> dict:
        """Plain-data form used for canonical hashing."""
        return {
            "kind": self.kind,
            "size": self.size,
            "automaton": self.automaton,
            "sat_prob_log2": self.sat_prob_log2,
            "params": [list(pair) for pair in self.params],
        }


@dataclass(frozen=True)
class EstimatorSpec:
    """One point on the confidence-estimator axis.

    ``tage`` is compatible with TAGE predictors only (it reads
    ``predictor.last_prediction``); ``self`` needs a sum-based predictor
    (perceptron / O-GEHL); ``jrs`` / ``ejrs`` keep their own gshare-style
    table and work with any predictor.
    """

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(
                f"unknown estimator kind {self.kind!r}; choose from {ESTIMATOR_KINDS}"
            )

    @classmethod
    def of(cls, kind: str, **params) -> "EstimatorSpec":
        return cls(kind=kind, params=_freeze_params(params))

    @classmethod
    def from_dict(cls, data: dict) -> "EstimatorSpec":
        """Inverse of :meth:`as_dict` (journal/resume reconstruction)."""
        return cls(kind=data["kind"],
                   params=_params_from_dict(data.get("params", ())))

    @property
    def is_binary(self) -> bool:
        """True for high/low estimators run by ``simulate_binary``."""
        return self.kind in BINARY_ESTIMATOR_KINDS

    @property
    def label(self) -> str:
        return self.kind

    def compatible_with(self, predictor: PredictorSpec) -> bool:
        """Can this estimator observe that predictor?"""
        if self.kind == "tage":
            return predictor.kind == "tage"
        if self.kind == "self":
            return predictor.kind in ("perceptron", "ogehl")
        return True

    def as_dict(self) -> dict:
        return {"kind": self.kind, "params": [list(pair) for pair in self.params]}


@dataclass(frozen=True)
class JobSpec:
    """One fully resolved grid cell: a single (trace, predictor,
    estimator) simulation with its scalar run options.

    ``seed`` is the per-job RNG seed already derived by grid expansion
    (``None`` keeps each component's built-in deterministic seeds, which
    reproduces :func:`repro.sim.runner.run_trace` bit-for-bit).

    ``backend`` selects the simulation engine.  It is deliberately
    **excluded** from :meth:`as_dict` and therefore from
    :meth:`spec_hash`: the fast backend is bit-for-bit equivalent to the
    reference engine (enforced by ``tests/equivalence/``), so both
    backends share the same on-disk cache entries and a fast re-run of a
    reference sweep is served entirely from cache.  How a job is
    executed beyond that — alone or as a member of a
    :class:`LockstepBatch` sharing its trace's planes — is the
    planner's choice and never part of the job.
    """

    predictor: PredictorSpec
    estimator: EstimatorSpec
    trace: str
    n_branches: int
    warmup_branches: int = 0
    adaptive: bool = False
    target_mkp: float = 10.0
    seed: int | None = None
    backend: str = DEFAULT_BACKEND  # repro: allow[RPR002] execution-only; results are backend-invariant

    def __post_init__(self) -> None:
        validate_backend(self.backend)

    def as_dict(self) -> dict:
        return {
            "predictor": self.predictor.as_dict(),
            "estimator": self.estimator.as_dict(),
            "trace": self.trace,
            "n_branches": self.n_branches,
            "warmup_branches": self.warmup_branches,
            "adaptive": self.adaptive,
            "target_mkp": self.target_mkp,
            "seed": self.seed,
        }

    def spec_hash(self) -> str:
        """Digest keying this job in the on-disk result cache."""
        return stable_digest(self.as_dict())

    @property
    def label(self) -> str:
        return f"{self.trace}/{self.predictor.label}/{self.estimator.label}"

    @property
    def trace_key(self) -> tuple[str, int]:
        """The (trace, length) this job simulates: a worker's trace memo key."""
        return self.trace, self.n_branches


@dataclass(frozen=True)
class LockstepBatch:
    """A fused work unit: fast-backend TAGE jobs sharing one trace, one
    length and one plane geometry, run from a single in-memory
    computation of that trace's arrays and index/tag planes.

    Members may mix the multi-class ``tage`` estimator (one batched
    kernel pass) with the binary ``jrs``/``ejrs`` estimators (a counter
    scan each, over the same planes).  A binary member reads the
    prediction stream a controller-free ``tage`` member of the same TAGE
    configuration published in that pass, and runs its own prediction
    pass only when there is none; the JRS base index is shared by every
    binary cell of the trace.  Those streams stay on the trace's arrays
    until the executing process materializes another trace.

    ``members`` keeps each job's original grid index so the broker can
    fan completion (cache store, journal record, result slot) back out
    per job — the batch is an execution vehicle, never an identity: each
    member is cached and journaled under its own :meth:`JobSpec.spec_hash`,
    bit-identical to an independent run (see
    ``tests/equivalence/test_lockstep.py``).  Built by
    :func:`repro.sweep.executor.plan_lockstep`; lives here (pure data
    over :class:`JobSpec`) so the broker can type-dispatch on it without
    importing the executor.
    """

    members: tuple[tuple[int, "JobSpec"], ...]

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError(
                f"a lockstep batch needs >= 2 member jobs, got {len(self.members)}"
            )

    @property
    def index(self) -> int:
        """The unit's dispatch index: its first member's grid index."""
        return self.members[0][0]

    @property
    def trace_key(self) -> tuple[str, int]:
        """The (trace, length) every member simulates."""
        return self.members[0][1].trace_key

    @property
    def label(self) -> str:
        first = self.members[0][1]
        return (
            f"lockstep[{len(self.members)}] {first.trace}/"
            f"{first.predictor.label}/{first.estimator.label}"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """The declarative sweep: three axes × shared scalar run options.

    Attributes:
        name: sweep label (reports, cache manifests).
        predictors / estimators / traces: the grid axes.
        n_branches: dynamic branches simulated per trace.
        warmup_branches: leading branches excluded from class accounting.
        adaptive: attach the §6.2 adaptive saturation controller
            (TAGE-observation cells only; forces the probabilistic
            automaton like :func:`repro.sim.runner.run_trace`).
        target_mkp: adaptive controller target.
        seed: ``None`` → every component keeps its fixed built-in seeds
            (legacy-identical results); an ``int`` → each job derives its
            own deterministic 32-bit seed from (seed, cell coordinates),
            so repeated cells are independent yet the whole sweep is
            reproducible and worker-count invariant.
        backend: simulation engine for every cell (``"reference"`` or
            ``"fast"``); excluded from :meth:`spec_hash` because results
            are backend-invariant (see :class:`JobSpec`), so switching
            backend reuses existing cache entries.
        skip_incompatible: drop (predictor, estimator) pairs that cannot
            be combined instead of raising during expansion.
    """

    name: str
    predictors: tuple[PredictorSpec, ...]
    estimators: tuple[EstimatorSpec, ...]
    traces: tuple[str, ...]
    n_branches: int = 16_000
    warmup_branches: int = 0
    adaptive: bool = False
    target_mkp: float = 10.0
    seed: int | None = None
    backend: str = DEFAULT_BACKEND  # repro: allow[RPR002] execution-only; results are backend-invariant
    skip_incompatible: bool = field(default=True, compare=False)  # repro: allow[RPR002] expansion policy, not result state

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        if not self.predictors:
            raise ValueError("spec needs at least one predictor")
        if not self.estimators:
            raise ValueError("spec needs at least one estimator")
        if not self.traces:
            raise ValueError("spec needs at least one trace")
        if self.n_branches <= 0:
            raise ValueError(f"n_branches must be positive, got {self.n_branches}")
        if self.warmup_branches < 0:
            raise ValueError(
                f"warmup_branches must be non-negative, got {self.warmup_branches}"
            )

    def with_options(self, **changes) -> "ExperimentSpec":
        """A copy with scalar options replaced (axes stay shared)."""
        return replace(self, **changes)

    @classmethod
    def from_dict(cls, data: dict, backend: str = DEFAULT_BACKEND) -> "ExperimentSpec":
        """Inverse of :meth:`as_dict` — how ``--resume`` rebuilds the grid.

        ``backend`` is supplied by the caller because it is (by design)
        not part of the canonical dict: results are backend-invariant,
        so a run may be resumed on a different engine.
        """
        return cls(
            name=data["name"],
            predictors=tuple(
                PredictorSpec.from_dict(entry) for entry in data["predictors"]
            ),
            estimators=tuple(
                EstimatorSpec.from_dict(entry) for entry in data["estimators"]
            ),
            traces=tuple(data["traces"]),
            n_branches=data["n_branches"],
            warmup_branches=data.get("warmup_branches", 0),
            adaptive=data.get("adaptive", False),
            target_mkp=data.get("target_mkp", 10.0),
            seed=data.get("seed"),
            backend=backend,
        )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "predictors": [p.as_dict() for p in self.predictors],
            "estimators": [e.as_dict() for e in self.estimators],
            "traces": list(self.traces),
            "n_branches": self.n_branches,
            "warmup_branches": self.warmup_branches,
            "adaptive": self.adaptive,
            "target_mkp": self.target_mkp,
            "seed": self.seed,
        }

    def spec_hash(self) -> str:
        """Digest of the whole sweep (cache manifests, reports)."""
        return stable_digest(self.as_dict())

    def derive_job_seed(self, predictor: PredictorSpec, estimator: EstimatorSpec,
                        trace: str) -> int | None:
        """Deterministic per-cell 32-bit seed (``None`` when unseeded).

        CRC-32 of the base seed and the cell coordinates: cheap, stable
        across processes and Python versions, and independent of the
        order cells are expanded or executed in.
        """
        if self.seed is None:
            return None
        key = canonical_json(
            [self.seed, predictor.as_dict(), estimator.as_dict(), trace]
        )
        return zlib.crc32(key.encode()) & 0xFFFFFFFF
