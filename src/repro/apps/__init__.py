"""Confidence-estimation consumers.

The paper motivates confidence estimation with two classic usages (§1,
§2.1); this package provides executable models of both so the
three-level estimator can be exercised end to end:

* :mod:`repro.apps.fetch_gating` — speculation control / pipeline gating
  for energy saving (Manne et al. [9], Aragón et al. [2]): stop or
  throttle instruction fetch when too many low-confidence branches are
  in flight.
* :mod:`repro.apps.smt_policy` — SMT fetch policy (Luo et al. [7]):
  prefer the thread with the fewest unresolved low-confidence branches.

These models are *illustrative applications* of the reproduced
estimator, not paper experiments — the paper evaluates the estimator
itself, and Table 2/3 quality directly bounds what these consumers can
achieve.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".fetch_gating": ("FetchGatingModel", "GatingPolicy", "GatingStats"),
    ".multipath": ("MultipathModel", "MultipathPolicy", "MultipathStats"),
    ".smt_policy": ("SmtFetchModel", "SmtPolicy", "SmtStats"),
})
