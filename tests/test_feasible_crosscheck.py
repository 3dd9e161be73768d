"""Cross-oracle tests: the verdict table and the agreement contract.

Both cross-oracles — the static ``feasible`` set and the ``poly``
frontier closure — share one verdict table, report and telemetry
plumbing.  The shared tests live in the ``_*Contract`` mixins and run
once per oracle; each oracle's class pins its own cell names, JSON
keys, event fields and metric names literally.
"""

import itertools
from types import SimpleNamespace

import pytest

import repro.checker.poly as poly_module
from repro import obs as repro_obs
from repro.feasible import (
    AGREE_CLEAN,
    AGREE_VIOLATION,
    CHECKER_FALSE_ALARM,
    CHECKER_MISS,
    POLY_FALSE_ALARM,
    POLY_MISS,
    FeasibleCrossCheckReport,
    PolyCrossCheckReport,
    SignatureVerdict,
    cross_check_outcome,
    cross_check_poly,
    enumerate_feasible,
)
from repro.harness import Campaign, check_campaign_result
from repro.instrument import SignatureCodec
from repro.mcm import SC, ConstraintRules, get_model
from repro.testgen import TestConfig
from repro.testgen.litmus import all_litmus_tests


def _mp():
    for lt in all_litmus_tests():
        if lt.name == "MP":
            return lt.program
    raise KeyError("MP")


def _mp_fset():
    return enumerate_feasible(_mp(), get_model("tso"),
                              codec=SignatureCodec(_mp(), 64))


def _mp_infeasible_signature():
    """The one MP outcome TSO forbids, as a signature."""
    program = _mp()
    codec = SignatureCodec(program, 64)
    fset = _mp_fset()
    uids = sorted(codec.candidates)
    infeasible = [
        codec.encode(dict(zip(uids, combo)))
        for combo in itertools.product(*(codec.candidates[u] for u in uids))
    ]
    infeasible = [s for s in infeasible if s not in fset]
    assert infeasible  # MP forbids one outcome under tso
    return program, codec, infeasible[0]


def _checked_campaign(seed=1, iterations=200):
    cfg = TestConfig(isa="x86", threads=2, ops_per_thread=6, addresses=2,
                     seed=5)
    campaign = Campaign(config=cfg, seed=seed)
    result = campaign.run(iterations)
    return campaign, result, campaign.check(result)


def _fake_outcome(signature, checker_violation):
    violations = [SimpleNamespace(index=0)] if checker_violation else []
    return SimpleNamespace(signatures=[signature],
                           collective=SimpleNamespace(violations=violations))


class _VerdictTableContract:
    """Verdict cells, report counts, summary and render, per oracle.

    ``CASES`` rows are ``(answer, checker violation, cell, disagree)``,
    where ``answer`` is the value of the oracle's per-verdict JSON key.
    """

    ORACLE = None
    VERDICT_KEY = None
    CASES = ()
    SUMMARY_KEYS = ()
    TITLE = None

    def _verdict(self, index, signature, answer, violation):
        flag = answer if self.ORACLE.key_is_flag else not answer
        return SignatureVerdict(index, signature, flag, violation,
                                self.ORACLE)

    def _report(self):
        raise NotImplementedError

    def _case_report(self):
        report = self._report()
        report.verdicts = [self._verdict(i, "s%d" % i, answer, violation)
                           for i, (answer, violation, _, _)
                           in enumerate(self.CASES)]
        return report

    def _check_kind(self, answer, violation, kind, disagree):
        v = self._verdict(0, "sig", answer, violation)
        assert v.kind == kind
        assert v.disagreement == disagree
        doc = v.to_json()
        assert doc == {"index": 0, "signature": "sig",
                       self.VERDICT_KEY: answer,
                       "checker_violation": violation, "kind": kind}

    def test_report_counts_and_agreement(self):
        report = self._case_report()
        for _, _, kind, _ in self.CASES:
            assert report.count(kind) == 1
        assert len(report.flagged) == 2
        assert len(report.disagreements) == 2
        assert not report.agreement

    def test_summary_json_and_render(self):
        report = self._case_report()
        doc = report.summary_json()
        assert list(doc) == list(self.SUMMARY_KEYS)
        assert doc["agreement"] is False
        text = report.render()
        lines = text.splitlines()
        assert lines[0] == "cross-check (%s, tso): 4 unique signatures" \
            % self.TITLE
        assert "  " + "   ".join("%s: 1" % kind
                                 for _, _, kind, _ in self.CASES) in lines
        assert [line for line in lines if "DISAGREEMENT" in line] == [
            "  DISAGREEMENT [%s] signature #%d s%d" % (kind, i, i)
            for i, (_, _, kind, disagree) in enumerate(self.CASES)
            if disagree]
        assert lines[-1] == "  verdict: DISAGREE"


class TestVerdictTable(_VerdictTableContract):
    ORACLE = FeasibleCrossCheckReport.oracle
    VERDICT_KEY = "feasible"
    TITLE = "feasible oracle"
    CASES = [
        (True, False, AGREE_CLEAN, False),
        (False, True, AGREE_VIOLATION, False),
        (False, False, CHECKER_MISS, True),
        (True, True, CHECKER_FALSE_ALARM, True),
    ]
    SUMMARY_KEYS = ("model", "signatures", "agree_clean", "agree_violation",
                    "checker_miss", "checker_false_alarm", "out_of_set",
                    "feasible", "exhaustive", "coverage", "agreement")

    def _report(self):
        return FeasibleCrossCheckReport("MP", "tso", feasible_set=_mp_fset())

    @pytest.mark.parametrize("feasible,violation,kind,disagree", CASES)
    def test_kinds(self, feasible, violation, kind, disagree):
        self._check_kind(feasible, violation, kind, disagree)

    def test_disagreement_iff_feasible_equals_violation(self):
        for feasible, violation, _, disagree in self.CASES:
            assert disagree == (feasible == violation)

    def test_observed_feasible_counts_members(self):
        assert self._case_report().observed_feasible == 2

    def test_coverage_summary_and_render(self):
        fset = _mp_fset()
        report = FeasibleCrossCheckReport("MP", "tso", feasible_set=fset)
        report.verdicts = [self._verdict(0, s, True, False)
                           for s in fset.sorted_signatures()[:2]]
        doc = report.summary_json()
        assert doc["agreement"] is True
        assert doc["feasible"] == 3
        assert doc["coverage"] == pytest.approx(2 / 3, abs=1e-3)
        text = report.render()
        assert "verdict: AGREE" in text
        assert "coverage: 2/3" in text


class TestPolyVerdictTable(_VerdictTableContract):
    ORACLE = PolyCrossCheckReport.oracle
    VERDICT_KEY = "poly_violation"
    TITLE = "poly closure"
    CASES = [
        (False, False, AGREE_CLEAN, False),
        (True, True, AGREE_VIOLATION, False),
        (False, True, POLY_MISS, True),
        (True, False, POLY_FALSE_ALARM, True),
    ]
    SUMMARY_KEYS = ("model", "signatures", "agree_clean", "agree_violation",
                    "poly_miss", "poly_false_alarm", "poly_violations",
                    "agreement")

    def _report(self):
        return PolyCrossCheckReport("MP", "tso")

    @pytest.mark.parametrize("poly_violation,violation,kind,disagree", CASES)
    def test_kinds(self, poly_violation, violation, kind, disagree):
        self._check_kind(poly_violation, violation, kind, disagree)

    def test_disagreement_iff_poly_differs_from_checker(self):
        for poly_violation, violation, _, disagree in self.CASES:
            assert disagree == (poly_violation != violation)

    def test_render_reports_closure_effort(self):
        report = self._case_report()
        report.closure_unions = 17
        assert report.render().splitlines()[1] == (
            "  frontier closure: 17 rule applications; "
            "per-signature verdicts exact (never sampled)")
        assert report.to_json()["closure_unions"] == 17


class _CrossCheckContract:
    """End-to-end cross-checks of a real campaign, per oracle."""

    EVENT = None
    EVENT_FIELDS = ()
    COUNTERS = ()

    def cross_check(self, result, outcome, model=None):
        raise NotImplementedError

    def check_clean_extras(self, xc):
        """The oracle's own report extras on a clean campaign."""

    def check_gauges(self, xc, snap):
        """The oracle's own gauges after one cross-check."""

    def check_json_extras(self, xc, doc):
        """The oracle's own ``to_json`` extras."""

    def test_clean_campaign_agrees(self):
        campaign, result, outcome = _checked_campaign()
        xc = self.cross_check(result, outcome, campaign.model)
        assert xc.agreement
        assert not xc.flagged
        assert len(xc.verdicts) == result.unique_signatures
        assert xc.count(AGREE_CLEAN) == len(xc.verdicts)
        self.check_clean_extras(xc)

    def test_default_model_matches_register_width(self):
        _, result, outcome = _checked_campaign()
        xc = self.cross_check(result, outcome)  # 64-bit -> tso
        assert xc.model_name == "tso"
        assert xc.agreement

    def test_obs_event_and_gauges(self):
        campaign, result, outcome = _checked_campaign(iterations=50)
        handle = repro_obs.enable()
        try:
            xc = self.cross_check(result, outcome, campaign.model)
            events = [e for e in handle.events.events()
                      if e.kind == self.EVENT]
            snap = handle.metrics.snapshot()
        finally:
            repro_obs.disable()
        assert len(events) == 1
        assert list(events[0].data) == list(self.EVENT_FIELDS)
        assert events[0].data["agreement"] is True
        signatures, flagged, alarms = self.COUNTERS
        assert snap[signatures]["value"] == len(xc.verdicts)
        assert snap[flagged]["value"] == 0
        assert snap[alarms]["value"] == 0
        self.check_gauges(xc, snap)

    def test_to_json_round_trip_fields(self):
        campaign, result, outcome = _checked_campaign(iterations=50)
        xc = self.cross_check(result, outcome, campaign.model)
        doc = xc.to_json()
        assert doc["program"] == result.program.name
        assert len(doc["verdicts"]) == len(xc.verdicts)
        assert all(v["kind"] == AGREE_CLEAN for v in doc["verdicts"])
        self.check_json_extras(xc, doc)


class TestCrossCheckOutcome(_CrossCheckContract):
    EVENT = "feasible.crosscheck"
    EVENT_FIELDS = ("program", "model", "signatures", "out_of_set",
                    "checker_false_alarms", "agreement")
    COUNTERS = ("feasible.crosscheck.signatures",
                "feasible.crosscheck.out_of_set",
                "feasible.crosscheck.false_alarms")

    def cross_check(self, result, outcome, model=None):
        return cross_check_outcome(result, outcome, model)

    def check_clean_extras(self, xc):
        assert xc.coverage is not None and 0 < xc.coverage <= 1

    def check_gauges(self, xc, snap):
        assert snap["feasible.coverage.feasible"]["value"] == \
            xc.feasible_set.feasible_count
        assert snap["feasible.coverage.observed"]["value"] == \
            len(xc.verdicts)
        assert snap["feasible.coverage.ratio"]["value"] == xc.coverage

    def check_json_extras(self, xc, doc):
        assert doc["feasible_set"]["exhaustive"] is True

    def test_membership_miss_is_checker_miss(self):
        """A signature outside the feasible set that the checker passed."""
        program, codec, signature = _mp_infeasible_signature()
        result = SimpleNamespace(program=program, codec=codec)
        xc = cross_check_outcome(result, _fake_outcome(signature, False),
                                 get_model("tso"))
        assert xc.count(CHECKER_MISS) == 1
        assert not xc.agreement

    def test_false_alarm_on_feasible_signature(self):
        program = _mp()
        codec = SignatureCodec(program, 64)
        member = _mp_fset().sorted_signatures()[0]
        result = SimpleNamespace(program=program, codec=codec)
        xc = cross_check_outcome(result, _fake_outcome(member, True),
                                 get_model("tso"))
        assert xc.count(CHECKER_FALSE_ALARM) == 1
        assert not xc.agreement

    def test_sampled_membership_stays_exact(self):
        """Tiny budget forces sampling; per-signature verdicts don't change."""
        campaign, result, outcome = _checked_campaign()
        exact = cross_check_outcome(result, outcome, campaign.model)
        sampled = cross_check_outcome(result, outcome, campaign.model,
                                      budget=1, samples=4)
        assert not sampled.feasible_set.exhaustive
        assert sampled.coverage is None
        assert [v.oracle_flag for v in sampled.verdicts] == \
            [v.oracle_flag for v in exact.verdicts]


class _NoFromRead(ConstraintRules):
    """Rules with the from-read rule dropped: an injected rule fault."""

    def __init__(self, program, model):
        super().__init__(program, model)
        self.next_store = {}


class TestPolyCrossCheck(_CrossCheckContract):
    EVENT = "poly.crosscheck"
    EVENT_FIELDS = ("program", "model", "signatures", "poly_violations",
                    "disagreements", "agreement")
    COUNTERS = ("poly.crosscheck.signatures",
                "poly.crosscheck.poly_violations",
                "poly.crosscheck.disagreements")

    def cross_check(self, result, outcome, model=None):
        return cross_check_poly(result, outcome, model)

    def check_clean_extras(self, xc):
        assert xc.closure_unions > 0

    def check_gauges(self, xc, snap):
        assert not [name for name in snap if name.startswith("feasible.")]

    def check_json_extras(self, xc, doc):
        assert doc["closure_unions"] == xc.closure_unions
        assert "feasible_set" not in doc

    def test_closure_violation_the_checker_passed_is_poly_false_alarm(self):
        program, codec, signature = _mp_infeasible_signature()
        result = SimpleNamespace(program=program, codec=codec)
        xc = cross_check_poly(result, _fake_outcome(signature, False),
                              get_model("tso"))
        assert xc.count(POLY_FALSE_ALARM) == 1
        assert xc.to_json()["verdicts"][0]["poly_violation"] is True
        assert not xc.agreement

    def test_injected_rule_fault_is_poly_miss(self, monkeypatch):
        """With fr dropped from the poly rules only, the closure passes
        real violations the graph checker flags."""
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=12,
                         addresses=2, seed=4)
        result = Campaign(config=cfg, seed=3).run(400)
        outcome = check_campaign_result(result, SC)
        assert cross_check_poly(result, outcome, SC).agreement
        monkeypatch.setattr(poly_module, "ConstraintRules", _NoFromRead)
        xc = cross_check_poly(result, outcome, SC)
        assert xc.count(POLY_MISS) >= 1
        assert xc.count(POLY_FALSE_ALARM) == 0
        assert not xc.agreement
        assert "DISAGREEMENT [poly-miss]" in xc.render()
