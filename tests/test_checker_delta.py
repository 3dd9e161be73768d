"""Differential tests: the delta checking pipeline vs the legacy one.

The delta pipeline's contract is *byte-identical verdicts*: for any
campaign, ``CollectiveChecker.check_deltas`` over a
:class:`SignatureDeltaSource` must produce the same summary — verdict
methods, violation indices, witness cycles, ``sorted_vertices``
accounting — as ``CollectiveChecker.check`` over the fully built graph
list, and ``BaselineChecker.check_stream`` the same as
``BaselineChecker.check``.  These tests enforce that contract on
hand-rolled, randomized, violating and injected-bug campaigns.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.checker import (
    BaselineChecker,
    CollectiveChecker,
    SignatureDeltaSource,
)
from repro.errors import CheckerError
from repro.graph import GraphBuilder
from repro.harness import Campaign, CheckOutcome, check_campaign_result
from repro.instrument import SignatureCodec
from repro.mcm import get_model
from repro.sim import OperationalExecutor, platform_for_isa
from repro.testgen import TestConfig, generate


def run_unique_signatures(cfg, iterations, seed=8):
    """Sorted unique signatures of one in-process campaign."""
    program = generate(cfg)
    platform = platform_for_isa(cfg.isa)
    codec = SignatureCodec(program, platform.register_width)
    executor = OperationalExecutor(program, platform.memory_model, platform,
                                   seed=seed, layout=cfg.layout)
    signatures = {codec.encode(e.rf) for e in executor.run(iterations)}
    return program, codec, sorted(signatures)


def both_pipelines(program, codec, signatures, model):
    """(legacy collective, delta collective, legacy baseline, stream baseline)."""
    builder = GraphBuilder(program, model, ws_mode="static")
    source = SignatureDeltaSource(codec, builder, signatures)
    graphs = [builder.build(codec.decode(sig)) for sig in signatures]
    return (CollectiveChecker().check(graphs),
            CollectiveChecker().check_deltas(source),
            BaselineChecker().check(graphs),
            BaselineChecker().check_stream(source))


class TestSignatureDeltaSource:
    def test_rejects_observed_builder(self, small_program, small_codec):
        builder = GraphBuilder(small_program, get_model("weak"),
                               ws_mode="observed")
        with pytest.raises(CheckerError):
            SignatureDeltaSource(small_codec, builder, [])

    def test_rejects_mismatched_program(self, small_codec):
        other = generate(TestConfig(isa="arm", threads=2, ops_per_thread=20,
                                    addresses=8, seed=99))
        builder = GraphBuilder(other, get_model("weak"), ws_mode="static")
        with pytest.raises(CheckerError):
            SignatureDeltaSource(small_codec, builder, [])

    def test_full_graph_matches_legacy_build(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20,
                         addresses=8, seed=7)
        program, codec, signatures = run_unique_signatures(cfg, 120)
        builder = GraphBuilder(program, get_model("weak"), ws_mode="static")
        source = SignatureDeltaSource(codec, builder, signatures)
        for index, sig in enumerate(signatures):
            legacy = builder.build(codec.decode(sig))
            streamed = source.full_graph(index)
            assert streamed.edge_pairs == legacy.edge_pairs
            assert streamed.adjacency == legacy.adjacency

    def test_empty_source_checks_clean(self, small_program, small_codec):
        builder = GraphBuilder(small_program, get_model("weak"),
                               ws_mode="static")
        source = SignatureDeltaSource(small_codec, builder, [])
        assert CollectiveChecker().check_deltas(source).num_graphs == 0
        assert BaselineChecker().check_stream(source).num_graphs == 0


class TestPipelineParity:
    @pytest.mark.parametrize("isa", ["arm", "x86"])
    def test_real_campaign_summaries_identical(self, isa):
        cfg = TestConfig(isa=isa, threads=2, ops_per_thread=40,
                         addresses=16, seed=3)
        program, codec, signatures = run_unique_signatures(cfg, 400)
        model = platform_for_isa(isa).memory_model
        legacy, streamed, base_legacy, base_streamed = both_pipelines(
            program, codec, signatures, model)
        assert streamed.summary() == legacy.summary()
        assert base_streamed.summary() == base_legacy.summary()
        assert not streamed.violations
        # the stream really took the incremental path, not full rebuilds
        if len(signatures) > 5:
            assert streamed.digits_changed > 0
            assert streamed.sorted_vertices < base_streamed.sorted_vertices

    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_randomized_campaigns_summaries_identical(self, seed):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=12,
                         addresses=4, seed=seed % 50)
        program, codec, signatures = run_unique_signatures(
            cfg, 60, seed=seed // 50)
        legacy, streamed, base_legacy, base_streamed = both_pipelines(
            program, codec, signatures, get_model("weak"))
        assert streamed.summary() == legacy.summary()
        assert base_streamed.summary() == base_legacy.summary()

    def test_violating_campaign_summaries_identical(self):
        """ARM weak-ordering executions checked against SC: dozens of
        genuine violations must flow through the windowed-resort path
        with witness cycles identical to the legacy checker's."""
        cfg = TestConfig(isa="arm", threads=4, ops_per_thread=40,
                         addresses=8, seed=3)
        program, codec, signatures = run_unique_signatures(cfg, 300, seed=13)
        legacy, streamed, base_legacy, base_streamed = both_pipelines(
            program, codec, signatures, get_model("sc"))
        assert len(legacy.violations) > 0
        assert streamed.summary() == legacy.summary()
        assert base_streamed.summary() == base_legacy.summary()
        # violating graphs never became the base: parity above already
        # proves it, but make the interesting verdicts explicit
        for mine, theirs in zip(streamed.verdicts, legacy.verdicts):
            assert (mine.violation, mine.cycle) == (theirs.violation, theirs.cycle)

    def test_initial_key_preserved_in_delta_pipeline(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=25,
                         addresses=8, seed=5)
        program, codec, signatures = run_unique_signatures(cfg, 150)
        builder = GraphBuilder(program, get_model("weak"), ws_mode="static")
        source = SignatureDeltaSource(codec, builder, signatures)
        graphs = [builder.build(codec.decode(sig)) for sig in signatures]
        key = lambda v: -v
        legacy = CollectiveChecker(initial_key=key).check(graphs)
        streamed = CollectiveChecker(initial_key=key).check_deltas(source)
        assert streamed.summary() == legacy.summary()


class TestInjectedBugCampaign:
    def test_table3_bug_campaign_summaries_identical(self):
        """Table-3 flow on the detailed simulator with an injected
        load-load reordering bug: the bug-perturbed signature multiset
        must check identically through both pipelines."""
        from repro.sim import GEM5_X86_8CORE
        from repro.sim.detailed import DetailedExecutor
        from repro.sim.faults import Bug, FaultConfig

        cfg = TestConfig(isa="x86", threads=4, ops_per_thread=60,
                         addresses=16, words_per_line=16, seed=24)
        campaign = Campaign(
            config=cfg, seed=124, platform=GEM5_X86_8CORE,
            executor_cls=lambda *a, **kw: DetailedExecutor(
                *a, faults=FaultConfig(bug=Bug.LOAD_LOAD_LSQ, l1_lines=4), **kw))
        result = campaign.run(96)
        assert result.unique_signatures > 10
        legacy = check_campaign_result(result, pipeline="graphs")
        streamed = check_campaign_result(result, pipeline="delta")
        assert streamed.collective.summary() == legacy.collective.summary()
        assert streamed.baseline.summary() == legacy.baseline.summary()
        assert streamed.pipeline == "delta" and legacy.pipeline == "graphs"


class TestCheckCampaignWiring:
    @pytest.fixture
    def campaign_result(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20,
                         addresses=8, seed=7)
        campaign = Campaign(config=cfg, seed=8)
        return campaign, campaign.run(150)

    def test_invalid_pipeline_rejected(self, campaign_result):
        campaign, result = campaign_result
        with pytest.raises(ValueError):
            check_campaign_result(result, pipeline="streaming")

    def test_delta_outcome_materializes_no_graphs(self, campaign_result):
        campaign, result = campaign_result
        outcome = campaign.check(result, pipeline="delta")
        assert outcome.pipeline == "delta"
        assert outcome.graphs == []
        assert outcome.source is not None

    def test_graph_at_rebuilds_identical_graphs(self, campaign_result):
        campaign, result = campaign_result
        streamed = campaign.check(result, pipeline="delta")
        legacy = campaign.check(result, pipeline="graphs")
        assert len(legacy.graphs) == len(streamed.signatures)
        for index, graph in enumerate(legacy.graphs):
            assert streamed.graph_at(index).edge_pairs == graph.edge_pairs
            assert legacy.graph_at(index) is graph

    def test_graph_at_without_source_raises(self):
        outcome = CheckOutcome(collective=None)
        with pytest.raises(IndexError):
            outcome.graph_at(0)

    def test_observed_ws_falls_back_to_graphs(self, campaign_result):
        campaign, result = campaign_result
        outcome = campaign.check(result, ws_mode="observed", pipeline="delta")
        assert outcome.pipeline == "graphs"
        assert len(outcome.graphs) == len(outcome.signatures)

    def test_baseline_skippable(self, campaign_result):
        campaign, result = campaign_result
        outcome = check_campaign_result(result, baseline=False,
                                        pipeline="delta")
        assert outcome.baseline is None

    def test_delta_report_accounts_delta_work(self, campaign_result):
        campaign, result = campaign_result
        streamed = campaign.check(result, pipeline="delta").collective
        legacy = campaign.check(result, pipeline="graphs").collective
        if streamed.num_graphs > 1:
            assert streamed.digits_changed > 0
            assert streamed.edges_added > 0
        # legacy path never touches the delta accounting
        assert (legacy.digits_changed, legacy.edges_added,
                legacy.edges_removed) == (0, 0, 0)

    def test_delta_obs_counters_recorded(self, campaign_result):
        campaign, result = campaign_result
        with obs.enabled_obs() as handle:
            outcome = campaign.check(result, pipeline="delta")
        report = outcome.collective
        metrics = handle.metrics
        # legacy names stay the pipeline's contract...
        assert metrics.counter("checker.collective.graphs").value == \
            report.num_graphs
        assert metrics.counter("checker.collective.sorted_vertices").value == \
            report.sorted_vertices
        # ...and the delta stream adds its own accounting
        assert metrics.counter("checker.delta.graphs").value == report.num_graphs
        assert metrics.counter("checker.delta.digits_changed").value == \
            report.digits_changed
        assert metrics.counter("checker.delta.edges_added").value == \
            report.edges_added
        assert metrics.counter("checker.delta.edges_removed").value == \
            report.edges_removed
        from repro.checker import INCREMENTAL

        assert metrics.histogram("checker.delta.window_size").count == \
            report.count(INCREMENTAL)
