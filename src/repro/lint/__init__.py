"""repro.lint — static test-program linter and instrumentation verifier.

Runs entirely without executing a test.  Four analyzer families:

* **program** (``MTC00x``) — dead stores, zero-candidate loads,
  duplicate/reserved store IDs, signature-region layout collisions and
  false sharing, fence hygiene (:mod:`repro.lint.program_lints`);
* **signature** (``MTC01x``) — independent recomputation of every
  weight-table slot, register-width overflow, word spills, exact
  mixed-radix cardinality and zero-entropy detection
  (:mod:`repro.lint.signature_lints`);
* **verifier** (``MTC02x``) — abstract interpretation of the emitted
  compare/branch chains against ``WeightTable.encode`` over the
  reads-from assignment space (:mod:`repro.lint.verifier`);
* **graph** (``MTC03x``) — contradictions in the static po skeleton and
  candidate sets, canonical-closure sanity
  (:mod:`repro.lint.graph_lints`).

Entry points: :func:`lint_program` for one report,
:func:`gate_iterations` for the campaign ``lint=`` gate, and the
``repro lint`` CLI subcommand.  Names are re-exported lazily, each
submodule imported on first use.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.lint.engine": (
        "FAMILIES", "POLICIES", "GateDecision", "LintConfig", "LintGateError",
        "fail_on_severity", "gate_iterations", "lint_program",
        "record_gate"),
    "repro.lint.findings": ("Finding", "LintReport", "Severity"),
    "repro.lint.rules": ("Rule", "all_rules", "get_rule", "rules_markdown",
                         "rules_table"),
})
