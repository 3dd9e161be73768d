"""Shared differential-contract helpers: the four-way test plane.

One fixture, not four copies: every checking-pipeline suite (delta,
packed, poly — and the contract tests over the paper configurations and
the litmus corpus) drives the same helpers to run a campaign, produce
one report per pipeline and assert the two-level agreement contract:

* **within the graph family** (graphs/delta/packed) reports are
  byte-identical — same :meth:`CheckReport.summary`: verdict methods,
  violation indices, witness cycles, ``sorted_vertices`` accounting;
* **across algorithm families** (graph family vs the poly frontier
  closure) the *violation digest* — graph count plus violating indices
  — is identical, while family-specific statistics legitimately differ
  (poly sorts nothing; its witness is the shortest rule cycle, not the
  first one Kahn's algorithm trips over).

Poly witnesses are additionally validated structurally: every hop of a
reported cycle must be a real edge of the independently rebuilt
constraint graph, and the cycle must close.
"""

from repro.checker import (
    CollectiveChecker,
    PackedChecker,
    PackedPlan,
    PolyChecker,
    PolySignatureSource,
    SignatureDeltaSource,
    violation_digest,
)
from repro.graph import GraphBuilder
from repro.instrument import SignatureCodec
from repro.sim import OperationalExecutor, platform_for_isa
from repro.testgen import generate

#: pipelines whose reports must agree byte-for-byte (one algorithm family)
GRAPH_FAMILY = ("graphs", "delta", "packed")
#: every batch pipeline of the differential contract
ALL_PIPELINES = ("graphs", "delta", "packed", "poly")


def every_rf(codec):
    """Every encodable reads-from assignment of a small program —
    exhaustive outcome-space enumeration for ground-truth pins."""
    import itertools

    loads = sorted(codec.candidates)
    for combo in itertools.product(*(codec.candidates[u] for u in loads)):
        yield dict(zip(loads, combo))


def run_unique_signatures(cfg, iterations, seed=8):
    """Sorted unique signatures of one in-process campaign."""
    program = generate(cfg)
    platform = platform_for_isa(cfg.isa)
    codec = SignatureCodec(program, platform.register_width)
    executor = OperationalExecutor(program, platform.memory_model, platform,
                                   seed=seed, layout=cfg.layout)
    signatures = {codec.encode(e.rf) for e in executor.run(iterations)}
    return program, codec, sorted(signatures)


def reference_reports(program, codec, signatures, model):
    """(legacy collective, delta collective) over the same block."""
    builder = GraphBuilder(program, model, ws_mode="static")
    source = SignatureDeltaSource(codec, builder, signatures)
    graphs = [builder.build(codec.decode(sig)) for sig in signatures]
    return (CollectiveChecker().check(graphs),
            CollectiveChecker().check_deltas(source))


def packed_report(program, codec, signatures, model, initial_key=None):
    plan = PackedPlan(codec, GraphBuilder(program, model, ws_mode="static"),
                      signatures)
    return PackedChecker(initial_key).check(plan), plan


def poly_report(program, codec, signatures, model):
    source = PolySignatureSource(codec, model, signatures)
    return PolyChecker().check(source), source


def pipeline_report(pipeline, program, codec, signatures, model):
    """One pipeline's collective report over a sorted signature block."""
    if pipeline == "graphs":
        builder = GraphBuilder(program, model, ws_mode="static")
        graphs = [builder.build(codec.decode(sig)) for sig in signatures]
        return CollectiveChecker().check(graphs)
    if pipeline == "delta":
        builder = GraphBuilder(program, model, ws_mode="static")
        return CollectiveChecker().check_deltas(
            SignatureDeltaSource(codec, builder, signatures))
    if pipeline == "packed":
        return packed_report(program, codec, signatures, model)[0]
    if pipeline == "poly":
        return poly_report(program, codec, signatures, model)[0]
    raise ValueError("unknown differential pipeline %r" % (pipeline,))


def assert_poly_witnesses_render(program, codec, signatures, model, report):
    """Structural validity of poly witness cycles.

    Each violating verdict's cycle must close (first == last) and take
    only hops that exist as edges of the independently rebuilt
    constraint graph for that signature — i.e. the witness is made of
    genuine ordering facts, not frontier artifacts.
    """
    builder = GraphBuilder(program, model, ws_mode="static")
    for verdict in report.violations:
        cycle = verdict.cycle
        assert cycle is not None and len(cycle) >= 3
        assert cycle[0] == cycle[-1]
        graph = builder.build(codec.decode(signatures[verdict.index]))
        for src, dst in zip(cycle, cycle[1:]):
            assert dst in graph.adjacency.get(src, ()), \
                (verdict.index, src, dst)


def assert_differential_contract(program, codec, signatures, model,
                                 pipelines=ALL_PIPELINES,
                                 expect_violations=None):
    """Run every pipeline over one block and assert the agreement
    contract; returns the per-pipeline report dict for extra checks."""
    reports = {p: pipeline_report(p, program, codec, signatures, model)
               for p in pipelines}
    family = [reports[p] for p in pipelines if p in GRAPH_FAMILY]
    for other in family[1:]:
        assert other.summary() == family[0].summary()
    digests = [violation_digest(reports[p]) for p in pipelines]
    for other in digests[1:]:
        assert other == digests[0]
    if expect_violations is not None:
        violating = bool(digests[0]["violations"])
        assert violating == expect_violations, digests[0]
    if "poly" in reports:
        assert_poly_witnesses_render(program, codec, signatures, model,
                                     reports["poly"])
    return reports
