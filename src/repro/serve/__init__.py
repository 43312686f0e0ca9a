"""Confidence-as-a-service: the serving layer.

The paper's estimators are pure functions over branch streams, so they
serve naturally: a long-running asyncio server
(:class:`~repro.serve.server.ConfidenceServer`) holds sharded per-tenant
predictor + estimator state behind a small length-prefixed wire protocol
(:mod:`repro.serve.protocol`) — "observe a batch of branches, get back
each branch's prediction and confidence class" — and a load-driving
client (:mod:`repro.serve.driver`) measures it with open- and
closed-loop modes, latency percentiles and throughput/saturation curves.

Layering:

* :mod:`repro.serve.protocol` — frames, message types, error codes;
* :mod:`repro.serve.state` — :class:`SessionSpec` (the wire-facing cell
  description, built on the sweep layer's predictor/estimator specs) and
  :class:`TenantSession` (the live per-tenant cell: the TAGE kernel's
  resumable state for multi-class tenants, the reference engine's
  :func:`~repro.sim.engine.step_batch` for binary ones);
* :mod:`repro.serve.server` — the asyncio server: tenant → shard
  routing, per-tenant admission control with explicit rejects, request
  timeouts, graceful drain;
* :mod:`repro.serve.client` — the asyncio client (pipelined or
  call-and-wait) plus trace replay;
* :mod:`repro.serve.driver` — open/closed-loop load generation from any
  registered trace source, percentile reporting, saturation curves and
  the served-vs-offline differential check.

The serving hot path is bit-identical to the offline engines: a served
trace's per-branch (prediction, confidence class) stream equals the
reference :func:`repro.sim.engine.simulate` replay of the same
(predictor, estimator, trace) cell — enforced by
:func:`repro.serve.driver.differential_check` and the CI serving smoke.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".server": ("ConfidenceServer", "ServerConfig", "running_server"),
    ".state": ("SessionSpec", "TenantSession"),
    ".client": ("ServeClient", "DecisionStream", "ServeError", "ServeRejected",
                "ServeTimeout", "ServeDraining", "ServeBadRequest"),
    ".protocol": ("ProtocolError",),
    ".driver": ("DriveConfig", "DrivePoint", "DriveReport", "drive",
                "run_drive", "differential_check", "run_differential_check",
                "DifferentialMismatchError", "offline_decisions"),
})
