"""Per-tenant serving state.

A tenant session is the live, server-held replica of one offline
simulation cell.  The paper's estimator is storage-free — a branch's §5
class comes from state the TAGE predictor already holds — so a
multi-class (``tage`` estimator) session holds nothing but the TAGE
kernel's own state: a caller-owned state block and the carried plane
history, advanced by one C call per OBSERVE batch that builds the
batch's plane rows and runs the kernel over them
(:class:`~repro.sim.fast.tage_core.ResumableTageCell`; the pure builder
and kernel when the C build does not resolve; never NumPy).  The
batch's pc column is the u64 ``array('Q')`` the protocol decoded, read
by the kernel in place, and the C build loads at the session's first
OBSERVE, not at HELLO.
Adaptive §6.2 sessions ride the same kernel; its controller is part of
the state block.  Binary (JRS/eJRS/self) sessions hold the reference
predictor and estimator objects and advance them through
:func:`repro.sim.engine.step_batch`, one call per batch.

Both kinds build their components through
:func:`repro.sim.cells.build_cell`, exactly like a sweep job, so a
served trace's per-branch decision stream is bit-identical to the
offline reference replay of the same (predictor, estimator, trace) cell
— the property :func:`repro.serve.driver.differential_check` enforces.

:class:`SessionSpec` is the wire-facing description of such a cell: the
CLI predictor token (``tage-16K``, ``gshare``, …), the estimator kind
(``tage``/``jrs``/``ejrs``/``self``) and the scalar options a sweep cell
carries (seed, adaptive, target MKP).  It validates eagerly so a bad
HELLO is rejected before any state is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne

from repro.sim.backends import Capability, Cell, FastBackendUnsupported, get_backend
from repro.sim.cells import build_cell
from repro.sim.engine import step_batch
from repro.sim.fast.tage_core import ResumableTageCell
from repro.sweep.spec import EstimatorSpec, PredictorSpec

__all__ = ["SessionSpec", "TenantSession"]


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

    def cell(self) -> Cell:
        """Fresh power-on components of this session's cell, from
        :func:`~repro.sim.cells.build_cell` (same presets and seed
        derivation as a sweep job)."""
        return build_cell(
            self.predictor_spec, self.estimator_spec, adaptive=self.adaptive,
            seed=self.seed, target_mkp=self.target_mkp,
        )

    def capability(self, backend: str = "fast") -> Capability:
        """The named backend's verdict for this session's offline twin.

        Asks :meth:`repro.sim.backends.Backend.capability` — the same
        single decision point the sweep executor and the ``simulate``
        dispatchers use — about :meth:`cell`, so a served cell and its
        offline differential-check replay can never disagree about
        backend support.
        """
        return get_backend(backend).capability(self.cell())

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
    its reference :class:`~repro.sim.backends.Cell`.  All mutation
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
        cell = spec.cell()
        if spec.is_binary:
            self._cell = cell
            self._kernel = None
            self._observed = 0
            self._mispredictions = 0
            return
        try:
            self._kernel = ResumableTageCell(
                cell.predictor, cell.estimator, cell.controller
            )
        except FastBackendUnsupported as error:
            raise ValueError(
                f"session {spec.predictor!r} x {spec.estimator!r} cannot "
                f"run on the TAGE kernel: {error}"
            ) from error

    @property
    def n_observed(self) -> int:
        """Branches this session has stepped."""
        return self._observed if self._kernel is None else self._kernel.observed

    @property
    def mispredictions(self) -> int:
        """Mispredicted branches so far."""
        if self._kernel is None:
            return self._mispredictions
        return self._kernel.mispredictions

    def observe_batch(self, pcs, takens) -> tuple[bytes, bytes]:
        """Advance the session over a batch; per-record decisions back.

        Returns parallel byte columns ``(predictions, codes)`` — codes
        are §5 observation-class codes for multi-class sessions, the
        high-confidence flag for binary ones.  A multi-class batch is
        one :meth:`ResumableTageCell.step` (one fused C call: plane rows
        from the carried history, then the kernel); a binary batch is
        one :func:`~repro.sim.engine.step_batch` over the session's
        cell, which iterates the pc column.
        """
        if self._kernel is not None:
            return self._kernel.step(pcs, takens)
        predictions, codes = step_batch(self._cell, pcs, takens)
        self._observed += len(predictions)
        self._mispredictions += sum(map(ne, predictions, takens))
        return bytes(predictions), bytes(codes)

    def stats(self) -> dict:
        """Plain-data session accounting (the CLOSED payload)."""
        return {
            "tenant": self.spec.tenant,
            "observed": self.n_observed,
            "mispredictions": self.mispredictions,
        }
