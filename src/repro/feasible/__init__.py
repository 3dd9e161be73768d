"""repro.feasible — static MCM outcome enumeration.

A bounded symbolic enumerator computing, for a test program under an
MCM, the complete set of architecturally feasible load-value outcomes —
and therefore the exact feasible *signature* set via the instrument
weight tables.  Three consumers:

* **lint** — the ``MTC10x`` rules (:mod:`repro.lint.feasible_lints`):
  infeasible signature regions, feasible-set collapse, ineffective
  fences, budget-exceeded sampling;
* **checker cross-oracle** — ``repro run --cross-check feasible``
  (:mod:`repro.feasible.crosscheck`, which also carries the ``poly``
  closure's cross-oracle): every observed unique signature must be a
  member of the static feasible set; a membership miss is a hardware
  bug even if the constraint-graph checker passed, a checker violation
  on a feasible signature is a checker bug;
* **coverage** — the ``observed/feasible`` ratio per program
  (``feasible.coverage.*`` gauges and the ``repro feasible`` CLI), the
  steering signal coverage-guided test generation needs.

See ``docs/FEASIBLE.md`` (generated by ``repro feasible --doc``).
Names are re-exported lazily, each submodule imported on first use.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.feasible.crosscheck": (
        "AGREE_CLEAN", "AGREE_VIOLATION", "CHECKER_FALSE_ALARM",
        "CHECKER_MISS", "POLY_FALSE_ALARM", "POLY_MISS", "CrossCheckReport",
        "FeasibleCrossCheckReport", "OracleSpec", "PolyCrossCheckReport",
        "SignatureVerdict", "cross_check_outcome", "cross_check_poly",
        "signature_flagger"),
    "repro.feasible.enumerator": (
        "DEFAULT_BUDGET", "DEFAULT_SAMPLES", "FeasibilityOracle",
        "FeasibleSet", "enumerate_feasible", "signature_feasible"),
})
