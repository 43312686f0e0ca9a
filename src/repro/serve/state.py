"""Per-tenant serving state.

A tenant session is the live, server-held replica of one offline
simulation cell.  The paper's estimator is storage-free — a branch's §5
class comes from state the TAGE predictor already holds — so a
multi-class (``tage`` estimator) session holds nothing but the TAGE
kernel's own state: a caller-owned state block, the carried plane
history and one kernel call per OBSERVE batch
(:class:`~repro.sim.fast.tage_core.ResumableTageCell`, through the C
kernels when they resolve and the pure ones otherwise, without NumPy).
Adaptive §6.2 sessions ride the same kernel; its controller is part of
the state block.  Binary (JRS/eJRS/self) sessions step the reference
predictor and estimator objects one branch at a time in
:func:`repro.sim.engine.simulate_binary`'s order — predict, assess,
observe, train.

Both kinds build their components through :meth:`SessionSpec.components`,
exactly like the sweep layer
(:func:`repro.sweep.executor.build_cell_predictor` et al.), so a served
trace's per-branch decision stream is bit-identical to the offline
reference replay of the same (predictor, estimator, trace) cell — the
property :func:`repro.serve.driver.differential_check` enforces.

:class:`SessionSpec` is the wire-facing description of such a cell: the
CLI predictor token (``tage-16K``, ``gshare``, …), the estimator kind
(``tage``/``jrs``/``ejrs``/``self``) and the scalar options a sweep cell
carries (seed, adaptive, target MKP).  It validates eagerly so a bad
HELLO is rejected before any state is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.confidence.adaptive import AdaptiveSaturationController
from repro.confidence.estimator import TageConfidenceEstimator
from repro.sim.backends import Capability, Cell, FastBackendUnsupported, get_backend
from repro.sim.fast.tage_core import ResumableTageCell
from repro.sweep.executor import build_cell_binary_estimator, build_cell_predictor
from repro.sweep.spec import EstimatorSpec, PredictorSpec

__all__ = ["SessionComponents", "SessionSpec", "TenantSession"]


class SessionComponents(NamedTuple):
    """A session's freshly built reference components."""

    predictor: object
    estimator: object
    controller: object | None


@dataclass(frozen=True)
class SessionSpec:
    """One tenant's cell description, as carried by the HELLO payload.

    Attributes:
        tenant: tenant identity — routing key, admission-control scope
            and state namespace, all at once.
        predictor: CLI predictor token (``tage-<SIZE>[-prob]``,
            ``gshare``, ``bimodal``, ``perceptron``, ``ogehl``,
            ``local``).
        estimator: estimator kind (``tage`` for the paper's multi-class
            observation, ``jrs``/``ejrs``/``self`` for the binary
            baselines).
        adaptive: attach the §6.2 adaptive saturation controller
            (``tage`` estimator on a TAGE predictor only; forces the
            probabilistic automaton like the sweep layer does).
        target_mkp: adaptive controller target.
        seed: per-session RNG seed, derived exactly like a sweep job's
            (``None`` keeps each component's built-in seeds).
    """

    tenant: str
    predictor: str = "tage-64K"
    estimator: str = "tage"
    adaptive: bool = False
    target_mkp: float = 10.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.tenant or any(c.isspace() for c in self.tenant):
            raise ValueError(f"invalid tenant name {self.tenant!r}")
        predictor = PredictorSpec.parse(self.predictor)  # raises on bad token
        estimator = EstimatorSpec.of(self.estimator)
        if not estimator.compatible_with(predictor):
            raise ValueError(
                f"estimator {self.estimator!r} cannot observe predictor "
                f"{self.predictor!r}"
            )
        if self.adaptive and (estimator.kind != "tage" or predictor.kind != "tage"):
            raise ValueError(
                "adaptive control needs a TAGE predictor with the 'tage' "
                f"observation estimator, got {self.predictor!r} x {self.estimator!r}"
            )

    @property
    def predictor_spec(self) -> PredictorSpec:
        return PredictorSpec.parse(self.predictor)

    @property
    def estimator_spec(self) -> EstimatorSpec:
        return EstimatorSpec.of(self.estimator)

    @property
    def is_binary(self) -> bool:
        """Binary high/low sessions return the confidence flag as code."""
        return self.estimator_spec.is_binary

    def components(self) -> SessionComponents:
        """Fresh power-on predictor, estimator and §6.2 controller.

        The one construction of a session's cell, shared by
        :class:`TenantSession`, :meth:`capability` and the offline
        replays in :mod:`repro.serve.driver`: the predictor through
        :func:`~repro.sweep.executor.build_cell_predictor` (same
        presets and seed derivation as a sweep job), the §5 observation
        estimator and optional controller for ``tage`` cells, the
        binary estimator otherwise.
        """
        predictor = build_cell_predictor(
            self.predictor_spec, adaptive=self.adaptive, seed=self.seed
        )
        if self.estimator_spec.kind != "tage":
            return SessionComponents(
                predictor,
                build_cell_binary_estimator(self.estimator_spec, predictor),
                None,
            )
        controller = (
            AdaptiveSaturationController(predictor, target_mkp=self.target_mkp)
            if self.adaptive
            else None
        )
        return SessionComponents(
            predictor, TageConfidenceEstimator(predictor), controller
        )

    def capability(self, backend: str = "fast") -> Capability:
        """The named backend's verdict for this session's offline twin.

        Asks :meth:`repro.sim.backends.Backend.capability` — the same
        single decision point the sweep executor and the ``simulate``
        dispatchers use — about :meth:`components`, so a served cell
        and its offline differential-check replay can never disagree
        about backend support.
        """
        predictor, estimator, controller = self.components()
        return get_backend(backend).capability(Cell(
            predictor=predictor,
            estimator=estimator,
            controller=controller,
            binary=self.is_binary,
        ))

    def as_dict(self) -> dict:
        """Plain-data wire form (the HELLO payload)."""
        return {
            "tenant": self.tenant,
            "predictor": self.predictor,
            "estimator": self.estimator,
            "adaptive": self.adaptive,
            "target_mkp": self.target_mkp,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SessionSpec":
        """Validated spec from a decoded HELLO payload."""
        known = {"tenant", "predictor", "estimator", "adaptive", "target_mkp", "seed"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown session fields {sorted(unknown)}")
        if "tenant" not in payload:
            raise ValueError("session spec needs a 'tenant' field")
        return cls(**payload)


class TenantSession:
    """Live decision state for one tenant.

    A multi-class session is a :class:`ResumableTageCell` — the TAGE
    kernel's state block and carried history; a binary session holds
    the reference predictor and estimator objects.  All mutation
    happens through :meth:`observe_batch`, which the server calls from
    exactly one shard worker — per-tenant serialization is a routing
    property, so the session itself needs no locking.

    Raises:
        ValueError: when a multi-class cell falls outside the TAGE
            kernel's family (a typed rejection at HELLO; there is no
            slower fallback loop).
    """

    def __init__(self, spec: SessionSpec) -> None:
        self.spec = spec
        predictor, estimator, controller = spec.components()
        if spec.is_binary:
            self.predictor = predictor
            self.estimator = estimator
            self._cell = None
            self._observed = 0
            self._mispredictions = 0
            return
        try:
            self._cell = ResumableTageCell(predictor, estimator, controller)
        except FastBackendUnsupported as error:
            raise ValueError(
                f"session {spec.predictor!r} x {spec.estimator!r} cannot "
                f"run on the TAGE kernel: {error}"
            ) from error

    @property
    def n_observed(self) -> int:
        """Branches this session has stepped."""
        return self._observed if self._cell is None else self._cell.observed

    @property
    def mispredictions(self) -> int:
        """Mispredicted branches so far."""
        if self._cell is None:
            return self._mispredictions
        return self._cell.mispredictions

    def observe_batch(self, pcs, takens) -> tuple[bytes, bytes]:
        """Advance the session over a batch; per-record decisions back.

        Returns parallel byte columns ``(predictions, codes)`` — codes
        are §5 observation-class codes for multi-class sessions, the
        high-confidence flag for binary ones.  A multi-class batch is
        one :meth:`ResumableTageCell.step` (plane rows from the carried
        history, then one kernel call); a binary batch replicates
        :func:`repro.sim.engine.simulate_binary`'s per-branch step
        order exactly.
        """
        if self._cell is not None:
            return self._cell.step(pcs, takens)
        predictions = bytearray()
        codes = bytearray()
        predict = self.predictor.predict
        train = self.predictor.train
        assess = self.estimator.assess
        observe = self.estimator.observe
        mispredictions = 0
        for pc, taken_byte in zip(pcs, takens):
            taken = taken_byte == 1
            prediction = predict(pc)
            high = assess(pc, prediction)
            if prediction != taken:
                mispredictions += 1
            observe(pc, prediction, taken)
            train(pc, taken)
            predictions.append(1 if prediction else 0)
            codes.append(1 if high else 0)
        self._observed += len(predictions)
        self._mispredictions += mispredictions
        return bytes(predictions), bytes(codes)

    def stats(self) -> dict:
        """Plain-data session accounting (the CLOSED payload)."""
        return {
            "tenant": self.spec.tenant,
            "observed": self.n_observed,
            "mispredictions": self.mispredictions,
        }
