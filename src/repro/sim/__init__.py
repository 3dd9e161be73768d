"""Execution substrates: fast operational executor, detailed MESI simulator.

Names are re-exported lazily: loading a dump needs
:class:`~repro.sim.execution.Execution` but no executor.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sim.contention": ("ContentionModel", "LatencyConfig",
                             "UniformModel"),
    "repro.sim.execution": ("Execution", "ExecutionCounters"),
    "repro.sim.executor": ("OperationalExecutor",),
    "repro.sim.os_model": ("OSConfig", "OSModel"),
    "repro.sim.platform": ("ARM_BIG_LITTLE", "GEM5_X86_8CORE", "X86_DESKTOP",
                           "Platform", "platform_for_isa"),
    "repro.sim.tracing": ("ProtocolTracer", "TraceEvent"),
})
