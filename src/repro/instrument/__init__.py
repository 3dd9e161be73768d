"""Observability-enhancing instrumentation: signatures, codegen, baselines.

Names are re-exported lazily, each submodule imported on first use.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.instrument.codegen": ("CodeSize", "code_size", "emit_listing"),
    "repro.instrument.dynamic_pruning": ("FrontierCodec",
                                         "FrontierSignature"),
    "repro.instrument.pruning": ("pruned_candidate_sources", "regularize"),
    "repro.instrument.register_flush": ("IntrusivenessReport",
                                        "flush_log_size", "intrusiveness"),
    "repro.instrument.signature": ("MAX_REGISTER_WIDTH", "Signature",
                                   "SignatureCodec"),
    "repro.instrument.static_analysis": ("candidate_sources",
                                         "observable_values"),
    "repro.instrument.weights": ("LoadSlot", "ThreadWeightTable",
                                 "build_weight_tables"),
})
