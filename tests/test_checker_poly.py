"""The poly pipeline: frontier-closure verification and its wiring.

Unit coverage for :mod:`repro.checker.poly` and the dispatcher:
verdict equivalence against the feasible enumerator's own cycle tests
on exhaustively enumerable litmus outcome spaces (the shared rules are
pinned on their own in ``tests/test_mcm_rules.py``), witness-cycle validity,
the four-way differential contract on real and violating campaigns
(via :mod:`tests.differential` — the shared fixture of the packed and
delta suites), the runner/stream wiring of ``--check-pipeline poly``
and ``auto``, and what ``auto`` resolves to.
"""

import pytest

from repro import obs
from repro.checker import (
    CollectiveChecker,
    PolyChecker,
    PolySignatureSource,
    PolyVerifier,
    choose_pipeline,
    violation_digest,
)
from repro.checker.results import COMPLETE
from repro.feasible import FeasibilityOracle
from repro.graph import GraphBuilder
from repro.harness import Campaign, check_campaign_result
from repro.instrument import SignatureCodec
from repro.mcm import get_model
from repro.sim import platform_for_isa
from repro.testgen import TestConfig, generate
from repro.testgen.litmus import all_litmus_tests
from tests.differential import (
    assert_differential_contract,
    every_rf,
    poly_report,
    reference_reports,
    run_unique_signatures,
)

#: litmus outcome spaces stay exhaustively enumerable below this
_ENUMERABLE = 4096


class TestVerifierRules:
    """The frontier closure decides the same predicate as the feasible
    oracle's cycle test — proven by exhaustive enumeration over every
    encodable litmus outcome."""

    @pytest.mark.parametrize("model_name", ("sc", "tso", "weak"))
    def test_litmus_exhaustive_oracle_equivalence(self, model_name):
        model = get_model(model_name)
        for lt in all_litmus_tests():
            codec = SignatureCodec(lt.program, 64)
            if codec.cardinality > _ENUMERABLE:
                continue
            oracle = FeasibilityOracle(lt.program, model)
            verifier = PolyVerifier(lt.program, model)
            for rf in every_rf(codec):
                assert oracle.is_feasible(rf) == \
                    (not verifier.verify(rf).violation), (lt.name, rf)

    def test_static_skeleton_is_acyclic(self, small_program):
        verifier = PolyVerifier(small_program, get_model("weak"))
        for uid in range(verifier.num_ops):
            assert not (verifier._static_frontiers[uid] >> uid) & 1

    def test_witness_cycles_are_graph_cycles(self):
        model = get_model("sc")
        for lt in all_litmus_tests():
            codec = SignatureCodec(lt.program, 64)
            if codec.cardinality > _ENUMERABLE:
                continue
            verifier = PolyVerifier(lt.program, model)
            builder = GraphBuilder(lt.program, model, ws_mode="static")
            for rf in every_rf(codec):
                outcome = verifier.verify(rf)
                if not outcome.violation:
                    continue
                cycle = outcome.cycle
                assert cycle[0] == cycle[-1] and len(cycle) >= 3
                adjacency = builder.build(rf).adjacency
                for src, dst in zip(cycle, cycle[1:]):
                    assert dst in adjacency.get(src, ()), (lt.name, cycle)

    def test_violation_closure_terminates_and_saturates(self):
        """Cyclic fact systems must not loop: the frontiers saturate."""
        cfg = TestConfig(isa="arm", threads=4, ops_per_thread=40,
                         addresses=8, seed=3)
        program, codec, signatures = run_unique_signatures(cfg, 100, seed=13)
        verifier = PolyVerifier(program, get_model("sc"))
        outcomes = [verifier.verify(codec.decode(sig))
                    for sig in signatures]
        assert any(o.violation for o in outcomes)
        for o in outcomes:
            assert o.unions >= 0 and o.dynamic_pairs > 0


class TestSignatureSource:
    def test_protocol_surface(self, small_program, small_codec):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20,
                         addresses=8, seed=7)
        program, codec, signatures = run_unique_signatures(cfg, 60)
        source = PolySignatureSource(codec, get_model("weak"), signatures)
        assert len(source) == len(signatures)
        assert source.num_vertices == program.num_ops
        builder = GraphBuilder(program, get_model("weak"), ws_mode="static")
        for index in (0, len(signatures) - 1):
            assert source.full_graph(index).adjacency == \
                builder.build(codec.decode(signatures[index])).adjacency

    def test_plan_event_emitted(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=10,
                         addresses=4, seed=4)
        program, codec, signatures = run_unique_signatures(cfg, 20)
        with obs.enabled_obs() as handle:
            source = PolySignatureSource(codec, get_model("weak"),
                                         signatures)
        plans = [e for e in handle.events.events()
                 if e.kind == "checker.poly.plan"]
        assert len(plans) == 1
        assert plans[0].data["signatures"] == len(signatures)
        assert plans[0].data["static_pairs"] == \
            len(source.verifier.static_pairs)


class TestPolyChecker:
    def test_empty_block(self, small_codec):
        source = PolySignatureSource(small_codec, get_model("weak"), [])
        report = PolyChecker().check(source)
        assert report.num_graphs == 0
        assert violation_digest(report) == \
            violation_digest(CollectiveChecker().check([]))

    def test_report_shape_is_family_neutral(self):
        cfg = TestConfig(isa="x86", threads=2, ops_per_thread=15,
                         addresses=6, seed=7)
        program, codec, signatures = run_unique_signatures(cfg, 60)
        model = platform_for_isa("x86").memory_model
        report, source = poly_report(program, codec, signatures, model)
        assert report.num_graphs == len(signatures)
        assert all(v.method == COMPLETE for v in report.verdicts)
        assert all(v.resorted_vertices == 0 for v in report.verdicts)
        assert report.sorted_vertices == 0
        assert source.stats["dynamic_pairs"] > 0

    def test_repeat_checks_replace_stats(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=15,
                         addresses=6, seed=5)
        program, codec, signatures = run_unique_signatures(cfg, 60)
        source = PolySignatureSource(codec, get_model("weak"), signatures)
        checker = PolyChecker()
        first = checker.check(source)
        stats = dict(source.stats)
        second = checker.check(source)
        assert source.stats == stats
        assert second.summary() == first.summary()

    def test_initial_key_is_interface_only(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20,
                         addresses=8, seed=6)
        program, codec, signatures = run_unique_signatures(cfg, 100)
        source = PolySignatureSource(codec, get_model("weak"), signatures)
        keyed = PolyChecker(initial_key=lambda v: -v).check(source)
        plain = PolyChecker().check(source)
        assert keyed.summary() == plain.summary()


class TestFourWayContract:
    """The shared differential fixture, all four pipelines at once."""

    @pytest.mark.parametrize("isa", ["arm", "x86"])
    def test_clean_campaign(self, isa):
        cfg = TestConfig(isa=isa, threads=2, ops_per_thread=40,
                         addresses=16, seed=3)
        program, codec, signatures = run_unique_signatures(cfg, 400)
        model = platform_for_isa(isa).memory_model
        assert_differential_contract(program, codec, signatures, model,
                                     expect_violations=False)

    def test_violating_campaign(self):
        """ARM weak executions checked against SC: genuine violations
        must agree across both algorithm families, and every poly
        witness must render against the rebuilt graph."""
        cfg = TestConfig(isa="arm", threads=4, ops_per_thread=40,
                         addresses=8, seed=3)
        program, codec, signatures = run_unique_signatures(cfg, 300, seed=13)
        assert_differential_contract(program, codec, signatures,
                                     get_model("sc"),
                                     expect_violations=True)

    def test_disagreement_is_caught(self):
        """The contract must actually bite: a corrupted poly verdict
        (one dropped rule family) flips the digest comparison, while the
        graph family — holding its own rules instance — is untouched."""
        cfg = TestConfig(isa="arm", threads=4, ops_per_thread=40,
                         addresses=8, seed=3)
        program, codec, signatures = run_unique_signatures(cfg, 300, seed=13)
        model = get_model("sc")
        _, delta = reference_reports(program, codec, signatures, model)
        report_digest = violation_digest(delta)
        verifier = PolyVerifier(program, model)
        verifier.rules.next_store = {}  # kill the from-read rule
        crippled = [codec.decode(sig) for sig in signatures]
        crippled_violations = [i for i, rf in enumerate(crippled)
                               if verifier.verify(rf).violation]
        assert crippled_violations != report_digest["violations"]
        # the fault stays local to the crippled verifier
        _, delta_after = reference_reports(program, codec, signatures, model)
        assert violation_digest(delta_after) == report_digest
        clean, _ = poly_report(program, codec, signatures, model)
        assert violation_digest(clean) == report_digest


class TestRunnerWiring:
    @pytest.fixture(scope="class")
    def campaign_result(self):
        campaign = Campaign(config=TestConfig(
            isa="arm", threads=2, ops_per_thread=30, addresses=8, seed=9),
            seed=5)
        return campaign, campaign.run(250)

    def test_poly_outcome_agrees_with_delta(self, campaign_result):
        campaign, result = campaign_result
        poly = check_campaign_result(result, campaign.model,
                                     pipeline="poly")
        delta = check_campaign_result(result, campaign.model,
                                      pipeline="delta")
        assert poly.pipeline == "poly"
        assert violation_digest(poly.collective) == \
            violation_digest(delta.collective)
        assert poly.baseline.summary() == delta.baseline.summary()

    def test_poly_outcome_materializes_no_graphs(self, campaign_result):
        campaign, result = campaign_result
        outcome = check_campaign_result(result, campaign.model,
                                        pipeline="poly")
        assert outcome.graphs == []
        assert isinstance(outcome.source, PolySignatureSource)

    def test_graph_at_rebuilds_identical_graphs(self, campaign_result):
        campaign, result = campaign_result
        poly = check_campaign_result(result, campaign.model,
                                     pipeline="poly")
        legacy = check_campaign_result(result, campaign.model,
                                       pipeline="graphs")
        for index in range(len(poly.signatures)):
            assert poly.graph_at(index).adjacency == \
                legacy.graphs[index].adjacency

    def test_observed_ws_falls_back_to_graphs(self, campaign_result):
        campaign, result = campaign_result
        outcome = check_campaign_result(result, campaign.model,
                                        ws_mode="observed", pipeline="poly")
        assert outcome.pipeline == "graphs"
        assert outcome.graphs

    def test_rejects_unknown_pipeline(self, campaign_result):
        campaign, result = campaign_result
        with pytest.raises(ValueError):
            check_campaign_result(result, campaign.model,
                                  pipeline="polynomial")

    def test_poly_obs_counters_recorded(self, campaign_result):
        campaign, result = campaign_result
        with obs.enabled_obs() as handle:
            outcome = check_campaign_result(result, campaign.model,
                                            pipeline="poly")
        metrics = handle.metrics
        report = outcome.collective
        assert metrics.counter("checker.collective.graphs").value == \
            report.num_graphs
        assert metrics.counter("checker.poly.signatures").value == \
            len(outcome.source)
        assert metrics.counter("checker.poly.dynamic_pairs").value == \
            outcome.source.stats["dynamic_pairs"]

    def test_auto_resolves_and_agrees(self, campaign_result):
        campaign, result = campaign_result
        auto = check_campaign_result(result, campaign.model,
                                     pipeline="auto")
        delta = check_campaign_result(result, campaign.model,
                                      pipeline="delta")
        assert auto.pipeline == "packed"
        assert violation_digest(auto.collective) == \
            violation_digest(delta.collective)


class TestStreamFinalizeWiring:
    @pytest.fixture()
    def fed_checker(self):
        from repro.checker.stream import StreamingCollectiveChecker

        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20,
                         addresses=8, seed=6)
        program, codec, signatures = run_unique_signatures(cfg, 150)
        builder = GraphBuilder(program, get_model("weak"), ws_mode="static")
        checker = StreamingCollectiveChecker(codec, builder)
        for sig in signatures:
            checker.feed(sig)
        return checker

    def test_finalize_poly_agrees_with_delta(self, fed_checker):
        assert violation_digest(fed_checker.finalize(pipeline="poly")) == \
            violation_digest(fed_checker.finalize())

    def test_finalize_auto_matches_delta_summary(self, fed_checker):
        # auto resolves to packed, inside the graph family, so full
        # byte parity must hold
        assert fed_checker.finalize(pipeline="auto").summary() == \
            fed_checker.finalize().summary()


class TestDispatch:
    def test_auto_resolves_to_packed_or_graphs(self):
        assert choose_pipeline() == choose_pipeline("static") == "packed"
        assert choose_pipeline("observed") == "graphs"
