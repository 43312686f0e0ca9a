"""Static invariant analysis for the reproduction's correctness contracts.

Every guarantee the project makes — bit-identical backends, byte-identical
``repro paper`` re-runs, crash-recoverable sweeps that resume to the same
bytes — rests on invariants that code review alone cannot police at scale.
This package encodes them as an AST-based analysis engine with pluggable
rules, exposed as the ``repro lint`` CLI subcommand and run in CI on every
change:

* **RPR001 determinism** — wall-clock reads, ambient entropy, unseeded
  global RNGs and hash-seed-dependent set iteration must not reach
  result-producing code (:mod:`repro.analysis.rules.determinism`).
* **RPR002 spec-hash hygiene** — every field of a ``*Spec`` dataclass is
  either part of its canonical ``as_dict()``/``spec_hash()`` form or
  explicitly allowed as execution-only plumbing
  (:mod:`repro.analysis.rules.spec_hash`).
* **RPR003 fork/async safety** — no mutation of module-level mutable
  state in the sweep/serve layers, no blocking calls inside ``async def``
  (:mod:`repro.analysis.rules.concurrency`).
* **RPR004 kernel parity** — marked kernel regions that exist in two
  translations (pure Python, embedded C) must change together
  (:mod:`repro.analysis.rules.parity`).
* **RPR005 warning/exception hygiene** — no bare ``except``, no
  category-less ``warnings.warn``, no blanket warning suppression
  (:mod:`repro.analysis.rules.hygiene`).

Findings are suppressed only inline, with ``# repro: allow[RPR001]``
pragmas (same line or the comment line directly above), so the policy
lives next to the code it sanctions.  Reporters render text, JSON and
SARIF 2.1.0 (:mod:`repro.analysis.report`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".finding": ("Finding", "PARSE_ERROR_RULE_ID"),
    ".engine": ("LintReport", "collect_files", "run_lint"),
    ".rules": ("RULES", "get_rules", "rule_ids"),
    ".source": ("SourceFile",),
    ".report": ("render_json", "render_sarif", "render_text"),
})
