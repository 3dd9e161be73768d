"""Constrained-random test generation, litmus library, test merging.

Names are re-exported lazily, each submodule imported on first use.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.testgen.config": ("PAPER_CONFIGS", "TestConfig", "paper_config"),
    "repro.testgen.generator": ("generate", "generate_suite"),
    "repro.testgen.litmus": ("LitmusTest", "all_litmus_tests"),
    "repro.testgen.merge": ("merge_tests",),
})
