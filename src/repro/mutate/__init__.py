"""repro.mutate — composable fault injection and checker-sensitivity
campaigns (the repo's analogue of the paper's Section 7 bug studies).

Public surface:

* :class:`~repro.mutate.plane.Trigger`,
  :class:`~repro.mutate.plane.FaultPlane` — seeded fault pacing and the
  injection plane armed on :class:`repro.sim.executor.OperationalExecutor`;
* :class:`~repro.mutate.registry.Mutation`,
  :class:`~repro.mutate.registry.CampaignSpec` and the registry
  accessors — the catalogue of injectable MCM violations, spanning both
  the operational executor and the detailed MESI simulator's gem5 bugs;
* :class:`~repro.mutate.campaign.SensitivityCampaign`,
  :func:`~repro.mutate.campaign.run_sensitivity_suite` — detection
  campaigns reporting executions-to-detection, detection rate and
  signature diversity.

The campaign driver imports the harness (which imports the executor,
which consults fault planes), so it is re-exported lazily to keep the
package importable from inside :mod:`repro.sim`.
"""

from repro._lazy import lazy_exports
from repro.mutate.plane import FaultPlane, Trigger
from repro.mutate.registry import (
    CampaignSpec,
    Mutation,
    all_mutations,
    detailed_mutations,
    get_mutation,
    operational_mutations,
    register,
)

__getattr__, __dir__, _lazy_names = lazy_exports(__name__, {
    "repro.mutate.campaign": ("DetectionOutcome", "SeedOutcome",
                              "SensitivityCampaign", "run_sensitivity_suite"),
})

__all__ = ["CampaignSpec", "FaultPlane", "Mutation", "Trigger",
           "all_mutations", "detailed_mutations", "get_mutation",
           "operational_mutations", "register"] + _lazy_names
