"""Checker cross-oracles: every observed signature judged twice.

Every unique signature a campaign observed is classified on two axes —
whether an independent oracle flags it, and the verdict of the
constraint-graph checker that produced the campaign's
:class:`CheckOutcome` — giving a four-way verdict table.  Two oracles
share the table, the report and the event plumbing; an
:class:`OracleSpec` holds what tells them apart, which is names only:

* ``feasible`` (``--cross-check feasible``): exact *membership* in the
  static feasible set (:mod:`repro.feasible.enumerator`); the oracle
  flags a signature outside the set.  Its report also carries the
  feasible set and the observed/feasible coverage ratio.
* ``poly`` (``--cross-check poly``): the frontier closure
  (:class:`~repro.checker.poly.PolyVerifier`) run per signature; the
  oracle flags a closure violation.  It never enumerates or samples:
  one closure per observed signature, exact at any program size.

============ ============ ======================= ====================
oracle flags checker      ``feasible`` cell       ``poly`` cell
             flags
============ ============ ======================= ====================
no           no           ``agree-clean``         ``agree-clean``
yes          yes          ``agree-violation``     ``agree-violation``
yes          no           ``checker-miss``        ``poly-false-alarm``
no           yes          ``checker-false-alarm`` ``poly-miss``
============ ============ ======================= ====================

The last two rows are *disagreements*: a bug both sides flag is a
hardware bug, a disagreement is a checker bug (for ``feasible``, a
membership miss the checker passed is a hardware bug the checker
missed).  Either flips the ``--cross-check`` exit code of ``repro
run``/``check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.feasible.enumerator import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLES,
    FeasibilityOracle,
    FeasibleSet,
    enumerate_feasible,
)
from repro.mcm.model import model_for_register_width
from repro.obs import get_obs

#: verdict-table cell names
AGREE_CLEAN = "agree-clean"
AGREE_VIOLATION = "agree-violation"
CHECKER_MISS = "checker-miss"
CHECKER_FALSE_ALARM = "checker-false-alarm"
POLY_MISS = "poly-miss"
POLY_FALSE_ALARM = "poly-false-alarm"


@dataclass(frozen=True)
class OracleSpec:
    """The names of one cross-oracle's cells, keys, events and counters.

    Attributes:
        name: the ``--cross-check`` selector; ``<name>.crosscheck`` is
            the span, the event kind and the counter prefix.
        title: how the rendered report names the oracle.
        cells: the four verdict cells, in summary and render order.
        oracle_only: the cell where only the oracle flags.
        checker_only: the cell where only the checker flags.
        verdict_key: the per-verdict JSON key of the oracle's answer.
        key_is_flag: whether that key holds the flag itself, or (a
            membership answer) its negation.
        flagged_key: summary key, event field and counter name of the
            number of signatures the oracle flags.
        alarm_event: event field of the disagreements the oracle
            reports, counted over ``alarm_cells``.
        alarm_counter: counter name of the same count.
        alarm_cells: the cells that count as alarms.
    """

    name: str
    title: str
    cells: tuple
    oracle_only: str
    checker_only: str
    verdict_key: str
    key_is_flag: bool
    flagged_key: str
    alarm_event: str
    alarm_counter: str
    alarm_cells: tuple

    @property
    def scope(self) -> str:
        return self.name + ".crosscheck"


FEASIBLE = OracleSpec(
    name="feasible", title="feasible oracle",
    cells=(AGREE_CLEAN, AGREE_VIOLATION, CHECKER_MISS, CHECKER_FALSE_ALARM),
    oracle_only=CHECKER_MISS, checker_only=CHECKER_FALSE_ALARM,
    verdict_key="feasible", key_is_flag=False,
    flagged_key="out_of_set", alarm_event="checker_false_alarms",
    alarm_counter="false_alarms", alarm_cells=(CHECKER_FALSE_ALARM,))
POLY = OracleSpec(
    name="poly", title="poly closure",
    cells=(AGREE_CLEAN, AGREE_VIOLATION, POLY_MISS, POLY_FALSE_ALARM),
    oracle_only=POLY_FALSE_ALARM, checker_only=POLY_MISS,
    verdict_key="poly_violation",
    key_is_flag=True, flagged_key="poly_violations",
    alarm_event="disagreements", alarm_counter="disagreements",
    alarm_cells=(POLY_MISS, POLY_FALSE_ALARM))


@dataclass(frozen=True)
class SignatureVerdict:
    """One unique signature's position in an oracle's verdict table."""

    index: int
    signature: object
    oracle_flag: bool
    checker_violation: bool
    oracle: OracleSpec

    @property
    def kind(self) -> str:
        if self.oracle_flag == self.checker_violation:
            return AGREE_VIOLATION if self.oracle_flag else AGREE_CLEAN
        return self.oracle.oracle_only if self.oracle_flag \
            else self.oracle.checker_only

    @property
    def disagreement(self) -> bool:
        return self.oracle_flag != self.checker_violation

    def to_json(self) -> dict:
        answer = self.oracle_flag if self.oracle.key_is_flag \
            else not self.oracle_flag
        return {"index": self.index, "signature": str(self.signature),
                self.oracle.verdict_key: answer,
                "checker_violation": self.checker_violation,
                "kind": self.kind}


@dataclass
class CrossCheckReport:
    """One oracle's comparison over a campaign's unique signatures."""

    oracle: ClassVar[OracleSpec]

    program_name: str
    model_name: str
    verdicts: list = field(default_factory=list)

    def count(self, kind: str) -> int:
        return sum(1 for v in self.verdicts if v.kind == kind)

    @property
    def flagged(self) -> list:
        """Signatures the oracle flags, whatever the checker said."""
        return [v for v in self.verdicts if v.oracle_flag]

    @property
    def disagreements(self) -> list:
        return [v for v in self.verdicts if v.disagreement]

    @property
    def agreement(self) -> bool:
        """True when the checker and the oracle never disagreed."""
        return not self.disagreements

    def summary_json(self) -> dict:
        """Compact digest for run summaries and obs payloads."""
        doc = {"model": self.model_name, "signatures": len(self.verdicts)}
        for cell in self.oracle.cells:
            doc[cell.replace("-", "_")] = self.count(cell)
        doc[self.oracle.flagged_key] = len(self.flagged)
        doc.update(self._summary_extras())
        doc["agreement"] = self.agreement
        return doc

    def to_json(self) -> dict:
        doc = self.summary_json()
        doc["program"] = self.program_name
        doc.update(self._json_extras())
        doc["verdicts"] = [v.to_json() for v in self.verdicts]
        return doc

    def render(self) -> str:
        lines = ["cross-check (%s, %s): %d unique signatures"
                 % (self.oracle.title, self.model_name, len(self.verdicts))]
        lines.extend(self._detail_lines())
        lines.append("  " + "   ".join("%s: %d" % (cell, self.count(cell))
                                       for cell in self.oracle.cells))
        for v in self.disagreements:
            lines.append("  DISAGREEMENT [%s] signature #%d %s"
                         % (v.kind, v.index, v.signature))
        lines.append("  verdict: %s"
                     % ("AGREE" if self.agreement else "DISAGREE"))
        return "\n".join(lines)

    def _summary_extras(self) -> dict:
        return {}

    def _json_extras(self) -> dict:
        return {}

    def _detail_lines(self) -> list:
        return []

    def _record_extras(self, metrics) -> None:
        pass


@dataclass
class FeasibleCrossCheckReport(CrossCheckReport):
    """Cross-check against the static feasible set, with coverage."""

    oracle: ClassVar[OracleSpec] = FEASIBLE

    feasible_set: FeasibleSet = None

    @property
    def observed_feasible(self) -> int:
        return len(self.verdicts) - len(self.flagged)

    @property
    def coverage(self):
        """observed/feasible unique-outcome ratio; None when sampled.

        The steering signal coverage-guided testgen consumes: how much
        of the architecturally reachable outcome space the campaign
        actually visited.
        """
        fs = self.feasible_set
        if not fs.exhaustive or fs.feasible_count == 0:
            return None
        return self.observed_feasible / fs.feasible_count

    def _summary_extras(self) -> dict:
        cov = self.coverage
        return {"feasible": self.feasible_set.feasible_count,
                "exhaustive": self.feasible_set.exhaustive,
                "coverage": round(cov, 4) if cov is not None else None}

    def _json_extras(self) -> dict:
        return {"feasible_set": self.feasible_set.to_json()}

    def _detail_lines(self) -> list:
        fs = self.feasible_set
        if not fs.exhaustive:
            return ["  feasible set: sampled %d of ~2^%d assignments "
                    "(%d feasible); membership still exact"
                    % (fs.sampled, fs.cardinality.bit_length(),
                       fs.feasible_count)]
        lines = ["  feasible set: %d of %d encodable outcomes "
                 "(exhaustive, budget %d)"
                 % (fs.feasible_count, fs.cardinality, fs.budget)]
        cov = self.coverage
        if cov is not None:
            lines.append("  coverage: %d/%d feasible outcomes observed "
                         "(%.1f%%)" % (self.observed_feasible,
                                       fs.feasible_count, 100 * cov))
        return lines

    def _record_extras(self, metrics) -> None:
        metrics.gauge("feasible.coverage.observed").set(
            self.observed_feasible)
        metrics.gauge("feasible.coverage.feasible").set(
            self.feasible_set.feasible_count)
        cov = self.coverage
        if cov is not None:
            metrics.gauge("feasible.coverage.ratio").set(cov)


@dataclass
class PolyCrossCheckReport(CrossCheckReport):
    """Cross-check against the poly frontier closure."""

    oracle: ClassVar[OracleSpec] = POLY

    #: closure-effort accounting (rule applications across all signatures)
    closure_unions: int = 0

    def _json_extras(self) -> dict:
        return {"closure_unions": self.closure_unions}

    def _detail_lines(self) -> list:
        return ["  frontier closure: %d rule applications; "
                "per-signature verdicts exact (never sampled)"
                % self.closure_unions]


def signature_flagger(oracle: str, program, model):
    """A reads-from map -> True when the named oracle flags it.

    The oracle is built once for the (program, model) pair; both
    answers are exact per execution, never sampled.
    """
    if oracle == POLY.name:
        from repro.checker.poly import PolyVerifier

        verify = PolyVerifier(program, model).verify
        return lambda rf: verify(rf).violation
    is_feasible = FeasibilityOracle(program, model).is_feasible
    return lambda rf: not is_feasible(rf)


def _classify(report: CrossCheckReport, outcome, flags) -> None:
    """Judge every signature of ``outcome`` into ``report``."""
    violating = {v.index for v in outcome.collective.violations}
    for index, signature in enumerate(outcome.signatures):
        report.verdicts.append(SignatureVerdict(
            index, signature, flags(signature), index in violating,
            report.oracle))


def _publish(report: CrossCheckReport) -> CrossCheckReport:
    """Emit the oracle's event and counters for a finished report."""
    spec = report.oracle
    alarms = sum(report.count(cell) for cell in spec.alarm_cells)
    obs = get_obs()
    obs.emit(spec.scope, program=report.program_name,
             model=report.model_name, signatures=len(report.verdicts),
             **{spec.flagged_key: len(report.flagged),
                spec.alarm_event: alarms},
             agreement=report.agreement)
    if obs.enabled:
        metrics = obs.metrics
        metrics.counter(spec.scope + ".signatures").inc(len(report.verdicts))
        metrics.counter(spec.scope + "." + spec.flagged_key).inc(
            len(report.flagged))
        metrics.counter(spec.scope + "." + spec.alarm_counter).inc(alarms)
        report._record_extras(metrics)
    return report


def cross_check_outcome(result, outcome, model=None, *,
                        budget: int = DEFAULT_BUDGET,
                        samples: int = DEFAULT_SAMPLES,
                        seed: int = 0) -> FeasibleCrossCheckReport:
    """Cross-check a checked campaign against the static feasible set.

    Args:
        result: the :class:`~repro.harness.runner.CampaignResult`.
        outcome: the matching :class:`CheckOutcome` (its ``signatures``
            order anchors violation indices).
        model: memory model; defaults to the register-width convention.
        budget/samples/seed: enumeration bounds (membership of each
            observed signature is always exact regardless).
    """
    if model is None:
        model = model_for_register_width(result.codec.register_width)
    with get_obs().span(FEASIBLE.scope):
        fset = enumerate_feasible(result.program, model, codec=result.codec,
                                  budget=budget, samples=samples, seed=seed)
        if fset.exhaustive:
            def flags(signature):
                return signature not in fset.signatures
        else:
            flag_rf = signature_flagger(FEASIBLE.name, result.program, model)
            decode = result.codec.decode

            def flags(signature):
                return flag_rf(decode(signature))
        report = FeasibleCrossCheckReport(result.program.name, model.name,
                                          feasible_set=fset)
        _classify(report, outcome, flags)
    return _publish(report)


def cross_check_poly(result, outcome, model=None) -> PolyCrossCheckReport:
    """Cross-check a checked campaign against the frontier closure.

    Args:
        result: the :class:`~repro.harness.runner.CampaignResult`.
        outcome: the matching :class:`CheckOutcome` (its ``signatures``
            order anchors violation indices).
        model: memory model; defaults to the register-width convention.
    """
    from repro.checker.poly import PolyVerifier

    if model is None:
        model = model_for_register_width(result.codec.register_width)
    with get_obs().span(POLY.scope):
        verifier = PolyVerifier(result.program, model)
        decode = result.codec.decode
        report = PolyCrossCheckReport(result.program.name, model.name)

        def flags(signature):
            closed = verifier.verify(decode(signature))
            report.closure_unions += closed.unions
            return closed.violation

        _classify(report, outcome, flags)
    return _publish(report)
