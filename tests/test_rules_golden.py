"""Golden digests of everything the constraint rules feed.

The four ordering rules — ppo, the static write serialization, rf and
fr to the coherence-next store — reach users through the graph
builder, the poly verifier, the feasible enumerator, both cross-oracle
reports and ``repro mutate --cross-check``.  Each case hashes one of
those outputs: graphs with their adjacency order and edge kinds, the
static ordering pairs, feasible sets, cross-check reports (JSON and
rendered text) and mutate JSON.  The digests were recorded before the
rules moved into one derivation, so any change to which pairs a
consumer sees, in what order or with what type, changes at least one
digest.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_rules_golden.py
"""

import contextlib
import hashlib
import io
import json

import pytest

from repro.checker import PolyVerifier, cross_check_poly
from repro.cli import main
from repro.feasible import (
    FeasibilityOracle,
    cross_check_outcome,
    enumerate_feasible,
)
from repro.graph import GraphBuilder
from repro.harness import Campaign, check_campaign_result
from repro.instrument import SignatureCodec
from repro.mcm import SC, TSO, WEAK
from repro.sim import OperationalExecutor, platform_for_isa
from repro.testgen import TestConfig, generate, paper_config
from repro.testgen.litmus import all_litmus_tests

#: ten of the paper configurations; the largest ARM ones are left out
#: to keep the suite fast
GRAPH_CONFIGS = ("ARM-2-50-32", "ARM-2-100-64", "ARM-2-200-32",
                 "ARM-4-50-64", "ARM-4-100-64", "ARM-7-50-64",
                 "ARM-7-100-128", "x86-2-100-32", "x86-4-50-64",
                 "x86-4-200-64")
#: executions built into graphs per configuration
EXECUTIONS = 12
_MODELS = (SC, TSO, WEAK)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _graph_record(graph) -> list:
    return [(src, [(dst, graph.edge_kind(src, dst)) for dst in dsts])
            for src, dsts in graph.adjacency.items()]


def graphs_digest() -> str:
    """Static graphs under the platform model and under SC, and
    observed-ws graphs under the platform model."""
    records = []
    for name in GRAPH_CONFIGS:
        cfg = paper_config(name)
        program = generate(cfg)
        platform = platform_for_isa(cfg.isa)
        model = platform.memory_model
        builders = (GraphBuilder(program, model),
                    GraphBuilder(program, SC),
                    GraphBuilder(program, model, ws_mode="observed"))
        executor = OperationalExecutor(program, model, platform, seed=4,
                                       layout=cfg.layout)
        for e in executor.run(EXECUTIONS):
            records.append([_graph_record(b.build(e.rf, e.ws))
                            for b in builders])
    return _sha(records)


def _programs():
    for name in GRAPH_CONFIGS:
        yield generate(paper_config(name))
    for lt in all_litmus_tests():
        yield lt.program


def static_pairs_digest(family) -> str:
    return _sha([family(program, model).static_pairs
                 for program in _programs() for model in _MODELS])


def feasible_sets_digest() -> str:
    docs = []
    for lt in all_litmus_tests():
        codec = SignatureCodec(lt.program, 64)
        for model in _MODELS:
            fset = enumerate_feasible(lt.program, model, codec=codec)
            docs.append((fset.to_json(),
                         [str(s) for s in fset.sorted_signatures()]))
    return _sha(docs)


def _campaign(violating):
    """A clean x86 campaign, or a weak ARM campaign checked under SC."""
    if violating:
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=12,
                         addresses=2, seed=4)
        campaign = Campaign(config=cfg, seed=3)
        result = campaign.run(400)
        return result, check_campaign_result(result, SC), SC
    cfg = TestConfig(isa="x86", threads=2, ops_per_thread=6, addresses=2,
                     seed=5)
    campaign = Campaign(config=cfg, seed=1)
    result = campaign.run(200)
    return result, campaign.check(result), campaign.model


def crosscheck_digest(oracle, violating) -> str:
    result, outcome, model = _campaign(violating)
    cross = cross_check_poly if oracle == "poly" else cross_check_outcome
    report = cross(result, outcome, model)
    return _sha(json.dumps(report.to_json()), report.render())


def mutate_digest(oracle) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["mutate", "--mutation", "gem5-protocol-squash",
                     "--cross-check", oracle, "--no-control", "--json"])
    return _sha(code, out.getvalue())


CASES = {
    "graphs": graphs_digest,
    "poly.static_pairs": lambda: static_pairs_digest(PolyVerifier),
    "feasible.static_pairs": lambda: static_pairs_digest(FeasibilityOracle),
    "feasible.sets": feasible_sets_digest,
    "crosscheck.feasible.clean": lambda: crosscheck_digest("feasible", False),
    "crosscheck.feasible.violating":
        lambda: crosscheck_digest("feasible", True),
    "crosscheck.poly.clean": lambda: crosscheck_digest("poly", False),
    "crosscheck.poly.violating": lambda: crosscheck_digest("poly", True),
    "mutate.feasible": lambda: mutate_digest("feasible"),
    "mutate.poly": lambda: mutate_digest("poly"),
}

GOLDEN = {
    'crosscheck.feasible.clean': '5eb2f8781b3b631011ba58b851760c4f5091100fd7a4a75bea5893a554303c69',
    'crosscheck.feasible.violating': 'c4457c94fb12d801a4a3d2278da8f557a912f466e20a7fa21b739e82b36bea84',
    'crosscheck.poly.clean': '1aa23a343092deeaf24e28b17829e29f37ec7c97508d3bce787e7d5046a7a42d',
    'crosscheck.poly.violating': 'cbba130eda27785cdb1c7131371e7a58b9bf95ea570c9d35433e3cea2285d48f',
    'feasible.sets': '8ba36c550b32c96c719bf5d90f15279f0f86c7e762bbdcad28b6150e36bd60a5',
    'feasible.static_pairs': 'd4fd758000523a645f8dc3d0f070767928849f096cd6dc89f85de827b90d5207',
    'graphs': '4f5f4cfd8adf3761470a988bc9ff33e72626d78f8dc9d6c23b54a2182cd0b21c',
    'mutate.feasible': '48acbc6f41426322c114adfbdacd10346562c550eeec658f23ed17843e95e49d',
    'mutate.poly': '8bf57d19da39192145016f0fb835c88e1e04f31e84cad7b72943730715ea0139',
    'poly.static_pairs': 'd4fd758000523a645f8dc3d0f070767928849f096cd6dc89f85de827b90d5207',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert CASES[case]() == GOLDEN[case]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


def test_violating_campaign_has_violations():
    """The violating cross-check case must really carry violations."""
    _, outcome, _ = _campaign(violating=True)
    assert outcome.collective.violations


if __name__ == "__main__":
    for name in sorted(CASES):
        print("    %r: %r," % (name, CASES[name]()))
