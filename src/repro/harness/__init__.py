"""End-to-end campaign harness and report formatting.

Names are re-exported lazily: host-side checking
(:mod:`repro.harness.checking`) loads without the device-side runner,
the executors or the test generator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.harness.checking": ("CampaignResult", "CheckOutcome",
                               "check_campaign_result"),
    "repro.harness.reporting": ("format_bar_chart", "format_table"),
    "repro.harness.runner": ("Campaign", "run_and_check"),
    "repro.harness.sortmodel": ("SortCostModel",),
    "repro.harness.suite": ("SuiteRunner", "SuiteStats"),
})
