"""MCM violation checkers: conventional baseline and MTraceCheck collective.

Names are re-exported lazily: a ``repro check`` of a dump imports only
the pipeline it runs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.checker.baseline": ("BaselineChecker",),
    "repro.checker.collective": ("CollectiveChecker",),
    "repro.checker.delta": ("SignatureDeltaSource",),
    "repro.checker.dispatch": ("CROSS_CHECKS", "DEFAULT_PIPELINE",
                               "PIPELINES", "SERVE_PIPELINES",
                               "choose_pipeline"),
    "repro.checker.minimize": ("MinimizedViolation", "minimize_violation"),
    "repro.checker.packed": ("PackedChecker", "PackedPlan"),
    "repro.checker.poly": ("PolyChecker", "PolySignatureSource",
                           "PolyVerifier", "violation_digest"),
    "repro.checker.results": ("COMPLETE", "INCREMENTAL", "NO_RESORT",
                              "CheckReport", "Verdict", "describe_cycle"),
    "repro.checker.ws_inference": ("infer_constraint_graph",),
    "repro.feasible.crosscheck": ("PolyCrossCheckReport", "cross_check_poly"),
})
