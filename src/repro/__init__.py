"""MTraceCheck reproduction (ISCA 2017).

Post-silicon memory-consistency validation: compact memory-access
interleaving signatures plus collective constraint-graph checking, with
simulated execution substrates standing in for the paper's silicon
platforms.  See README.md for the architecture tour; the most common
entry points are re-exported here, each imported on first use.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.checker.baseline": ("BaselineChecker",),
    "repro.checker.collective": ("CollectiveChecker",),
    "repro.checker.results": ("describe_cycle",),
    "repro.graph": ("ConstraintGraph", "GraphBuilder", "topological_sort"),
    "repro.harness.runner": ("Campaign", "run_and_check"),
    "repro.instrument.signature": ("Signature", "SignatureCodec"),
    "repro.mcm": ("SC", "TSO", "WEAK", "get_model"),
    "repro.sim.executor": ("OperationalExecutor",),
    "repro.sim.platform": ("platform_for_isa",),
    "repro.testgen.config": ("PAPER_CONFIGS", "TestConfig", "paper_config"),
    "repro.testgen.generator": ("generate",),
})
