"""Sensitivity campaigns: prove the checker catches every mutation.

The repo's analogue of the paper's Figures 10-12 bug studies: run each
registered :class:`~repro.mutate.registry.Mutation` under its pinned
:class:`~repro.mutate.registry.CampaignSpec` across several independent
seeds, and measure

* **executions-to-detection** — how many iterations ran before the
  first detection signal (checked cumulatively every ``spec.chunk``
  iterations, so the number is an upper bound with chunk granularity);
* **detection rate** — the fraction of seeds in which the mutation was
  caught within its budget (the CI gate requires 1.0);
* **signature diversity** — unique signatures of the mutated machine
  vs. an unmutated control run of the same budget (buggy machines
  typically *expand* the set of observed interleavings, Figure 12).

Detection channels, in the order they are consulted:

1. ``crash`` — the device died (paper bug 3: every run crashed before
   shipping a signature); surfaces as campaign crash outcomes.
2. ``assert`` — an observed rf source fell outside the instrumented
   candidate set, firing the compare/branch chain's assertion tail
   (paper Figure 4 "assert error"); free to test, no checking needed.
3. ``feasible`` / ``poly`` — only with ``cross_check`` set: an
   independent oracle flags an observed unique signature before the
   graph checker runs.  ``cross_check="feasible"`` tests exact
   membership in the statically enumerated feasible set
   (:mod:`repro.feasible`); ``cross_check="poly"`` re-verifies each
   signature with the frontier-closure algorithm family
   (:mod:`repro.checker.poly`) — exact at any size, never sampled.
4. ``violation`` — the collective checker found a constraint-graph
   cycle among the collected signatures (paper Section 3).

Campaigns reuse the standard harness end to end — :class:`Campaign`
(optionally fleet-sharded via ``jobs``), :func:`check_campaign_result`,
and the ``repro.obs`` registry (``mutate.*`` counters and spans) — so a
sensitivity run exercises the exact pipeline a real validation campaign
uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.merge import merge_campaign_results
from repro.fleet.sharding import plan_blocks
from repro.harness.runner import Campaign, check_campaign_result
from repro.mutate.registry import (
    Mutation,
    all_mutations,
    get_mutation,
    operational_mutations,
)
from repro.obs import get_obs

#: detection channel names
CRASH, ASSERT, VIOLATION = "crash", "assert", "violation"
#: cross-oracle channels (active only with ``cross_check`` set)
FEASIBLE, POLY = "feasible", "poly"
#: accepted ``cross_check`` selectors
CROSS_CHECK_MODES = (FEASIBLE, POLY)


def normalize_cross_check(cross_check):
    """Resolve a ``cross_check`` argument to an oracle name or None.

    Accepts the historical booleans (``True`` meant the feasible
    oracle) and the named selectors; anything else is a hard error so a
    typo cannot silently disable the cross-oracle.
    """
    if cross_check in (None, False):
        return None
    if cross_check is True:
        return FEASIBLE
    if cross_check in CROSS_CHECK_MODES:
        return cross_check
    raise ValueError("cross_check must be one of %s (or True/False/None); "
                     "got %r" % ("/".join(CROSS_CHECK_MODES), cross_check))


@dataclass
class SeedOutcome:
    """Detection result of one seed's campaign."""

    seed: int
    #: iterations actually executed (stops early on detection)
    iterations: int = 0
    detected: bool = False
    #: ``"crash"`` / ``"assert"`` / ``"feasible"`` / ``"violation"``
    #: (None if undetected)
    channel: str = None
    #: iterations run when the first signal was seen (chunk-granular)
    executions_to_detection: int = None
    violations: int = 0
    signature_asserts: int = 0
    crashes: int = 0
    unique_signatures: int = 0
    #: unique signatures outside the static feasible set (feasible
    #: cross-check campaigns only; stays 0 otherwise)
    out_of_feasible: int = 0
    #: unique signatures the frontier closure flags (poly cross-check
    #: campaigns only; stays 0 otherwise)
    poly_flags: int = 0

    def to_json(self) -> dict:
        return {"seed": self.seed, "iterations": self.iterations,
                "detected": self.detected, "channel": self.channel,
                "executions_to_detection": self.executions_to_detection,
                "violations": self.violations,
                "signature_asserts": self.signature_asserts,
                "crashes": self.crashes,
                "unique_signatures": self.unique_signatures,
                "out_of_feasible": self.out_of_feasible,
                "poly_flags": self.poly_flags}


@dataclass
class DetectionOutcome:
    """Aggregated sensitivity result for one mutation."""

    mutation: Mutation
    seeds: list = field(default_factory=list)
    #: unique signatures of the unmutated control run (same config,
    #: first seed, full budget); None for crash-class mutations
    clean_unique_signatures: int = None
    #: which cross-oracle channel was active ("feasible"/"poly"), or
    #: None/False when no cross-check ran
    cross_check: object = False

    @property
    def detected(self) -> bool:
        """True when *every* seed detected the mutation within budget."""
        return bool(self.seeds) and all(s.detected for s in self.seeds)

    @property
    def detection_rate(self) -> float:
        if not self.seeds:
            return 0.0
        return sum(1 for s in self.seeds if s.detected) / len(self.seeds)

    @property
    def max_executions_to_detection(self):
        hits = [s.executions_to_detection for s in self.seeds if s.detected]
        return max(hits) if hits else None

    @property
    def channels(self) -> list:
        return sorted({s.channel for s in self.seeds if s.channel})

    def to_json(self) -> dict:
        m = self.mutation
        return {
            "mutation": m.name,
            "title": m.title,
            "executor": m.executor,
            "fault_class": m.fault_class,
            "trigger": m.trigger.describe(),
            "points": list(m.points),
            "config": m.spec.config.name,
            "budget": m.spec.budget,
            "ws_mode": m.spec.ws_mode,
            "cross_check": self.cross_check,
            "detected": self.detected,
            "detection_rate": self.detection_rate,
            "max_executions_to_detection": self.max_executions_to_detection,
            "channels": self.channels,
            "clean_unique_signatures": self.clean_unique_signatures,
            "seeds": [s.to_json() for s in self.seeds],
        }


class SensitivityCampaign:
    """Runs one mutation's pinned detection campaign.

    Args:
        mutation: a registered mutation or its name.
        base_seed: offset added to each per-seed campaign seed, so
            independent sweeps can re-randomize without touching the
            pinned spec.
        budget: override of ``spec.budget`` (iteration ceiling per seed).
        seeds: override of ``spec.seeds`` (independent campaigns).
        jobs: fleet worker processes per campaign; with ``jobs > 1`` the
            whole budget runs sharded before one final check, so
            ``executions_to_detection`` coarsens to the budget itself.
        control: also run the unmutated control campaign for the
            signature-diversity comparison (skipped for crash-class
            mutations, whose devices ship no signatures at all).
        cross_check: also consult an independent oracle before the
            graph checker.  ``"feasible"`` (or the historical ``True``)
            tests each observed unique signature's membership in the
            statically enumerated feasible set (:mod:`repro.feasible`);
            ``"poly"`` re-verifies each signature with the
            frontier-closure family (:mod:`repro.checker.poly`).  An
            oracle flag detects the mutation on the matching channel.
            Both verdicts are exact per signature, never sampled.
    """

    def __init__(self, mutation, *, base_seed: int = 0, budget: int = None,
                 seeds: int = None, jobs: int = 1, control: bool = True,
                 cross_check=False):
        self.mutation = mutation if isinstance(mutation, Mutation) \
            else get_mutation(mutation)
        spec = self.mutation.spec
        self.base_seed = base_seed
        self.budget = spec.budget if budget is None else budget
        self.seeds = spec.seeds if seeds is None else seeds
        self.jobs = jobs
        self.control = control and self.mutation.fault_class != "crash"
        self.cross_check = normalize_cross_check(cross_check)
        #: lazy per-campaign state: the oracle is program/model-bound
        #: and per-signature verdicts are cached across re-inspections
        self._flag_rf = None
        self._verdicts: dict = {}

    def run(self) -> DetectionOutcome:
        obs = get_obs()
        outcome = DetectionOutcome(self.mutation, cross_check=self.cross_check)
        with obs.span("mutate.campaign"):
            for s in range(self.seeds):
                seed_out = self._run_seed(self.base_seed + s)
                outcome.seeds.append(seed_out)
                obs.emit("mutate.seed", mutation=self.mutation.name,
                         seed=seed_out.seed, detected=seed_out.detected,
                         channel=seed_out.channel or "",
                         executions_to_detection=(
                             seed_out.executions_to_detection))
            if self.control:
                outcome.clean_unique_signatures = self._run_control()
        obs.emit("mutate.campaign", mutation=self.mutation.name,
                 detected=outcome.detected,
                 detection_rate=outcome.detection_rate,
                 channels=",".join(outcome.channels))
        if obs.enabled:
            self._record_metrics(obs, outcome)
        return outcome

    # -- internals ---------------------------------------------------------------

    def _campaign(self, seed: int, mutation) -> Campaign:
        spec = self.mutation.spec
        return Campaign(config=spec.config, seed=seed, mutation=mutation,
                        sync_barriers=spec.sync_barriers)

    def _run_seed(self, seed: int) -> SeedOutcome:
        campaign = self._campaign(seed, self.mutation)
        out = SeedOutcome(seed)
        if self.jobs > 1:
            merged = campaign.run(self.budget, jobs=self.jobs)
            self._inspect(merged, campaign, out, self.budget)
            return out
        merged = None
        for index, count in plan_blocks(self.budget,
                                        self.mutation.spec.chunk):
            part = campaign.run_blocks([(index, count)])
            merged = part if merged is None else \
                merge_campaign_results([merged, part])
            if self._inspect(merged, campaign, out, out.iterations + count):
                break
        return out

    def _inspect(self, merged, campaign, out: SeedOutcome,
                 executed: int) -> bool:
        """Fold the cumulative result into ``out``; True on detection."""
        out.iterations = executed
        out.crashes = merged.crashes
        out.signature_asserts = merged.signature_asserts
        out.unique_signatures = merged.unique_signatures
        if self.mutation.fault_class == "crash":
            if merged.crashes:
                out.detected, out.channel = True, CRASH
                out.executions_to_detection = executed
            return out.detected
        if merged.signature_asserts:
            out.detected, out.channel = True, ASSERT
            out.executions_to_detection = executed
            return True
        if self.cross_check and merged.signature_counts:
            flags = self._count_flags(merged, campaign.model)
            if self.cross_check == FEASIBLE:
                out.out_of_feasible = flags
            else:
                out.poly_flags = flags
            if flags:
                out.detected, out.channel = True, self.cross_check
                out.executions_to_detection = executed
                return True
        if merged.signature_counts:
            check = check_campaign_result(
                merged, campaign.model, ws_mode=self.mutation.spec.ws_mode,
                baseline=False)
            out.violations = len(check.collective.violations)
            if out.violations:
                out.detected, out.channel = True, VIOLATION
                out.executions_to_detection = executed
                return True
        return False

    def _count_flags(self, merged, model) -> int:
        """Unique signatures the cross-check oracle flags, cached.

        The oracle depends only on the (unmutated) program and the
        model, so one instance serves every seed; per-signature
        verdicts are memoized across the cumulative re-inspections of
        the chunk loop.  Both oracles answer exactly per signature —
        ``poly`` never enumerates, so it scales to signature spaces
        ``feasible`` cannot bound.
        """
        from repro.feasible.crosscheck import signature_flagger

        if self._flag_rf is None:
            self._flag_rf = signature_flagger(self.cross_check,
                                              merged.program, model)
        decode = merged.codec.decode
        flags = 0
        for sig in merged.sorted_signatures():
            verdict = self._verdicts.get(sig)
            if verdict is None:
                verdict = self._flag_rf(decode(sig))
                self._verdicts[sig] = verdict
            if verdict:
                flags += 1
        return flags

    def _run_control(self) -> int:
        """Unmutated run of the same recipe, for the diversity baseline."""
        campaign = self._campaign(self.base_seed, None)
        return campaign.run(self.budget, jobs=self.jobs).unique_signatures

    def _record_metrics(self, obs, outcome: DetectionOutcome) -> None:
        metrics = obs.metrics
        metrics.counter("mutate.campaigns").inc()
        metrics.counter("mutate.iterations").inc(
            sum(s.iterations for s in outcome.seeds))
        metrics.counter("mutate.detections").inc(
            sum(1 for s in outcome.seeds if s.detected))
        if outcome.detected:
            metrics.counter("mutate.mutations_detected").inc()
        else:
            metrics.counter("mutate.mutations_missed").inc()
        for s in outcome.seeds:
            if s.channel:
                metrics.counter("mutate.channel.%s" % s.channel).inc()
        metrics.gauge("mutate.detection_rate").set(outcome.detection_rate)


def run_sensitivity_suite(mutations=None, *, include_detailed: bool = False,
                          base_seed: int = 0, budget: int = None,
                          seeds: int = None, jobs: int = 1,
                          control: bool = True,
                          cross_check=False) -> list:
    """Run detection campaigns for a set of mutations.

    Args:
        mutations: iterable of mutations or names; ``None`` selects the
            operational registry (plus the detailed gem5 bugs when
            ``include_detailed`` — they are an order of magnitude
            slower, so the default matches the CI fast path).
        (rest as in :class:`SensitivityCampaign`.)

    Returns:
        ``DetectionOutcome`` list, registry order.
    """
    if mutations is None:
        selected = all_mutations() if include_detailed \
            else operational_mutations()
    else:
        selected = [m if isinstance(m, Mutation) else get_mutation(m)
                    for m in mutations]
    return [
        SensitivityCampaign(m, base_seed=base_seed, budget=budget,
                            seeds=seeds, jobs=jobs, control=control,
                            cross_check=cross_check).run()
        for m in selected
    ]
