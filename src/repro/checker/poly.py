"""Polynomial-time frontier-closure checking — the fourth pipeline.

The graphs/delta/packed pipelines all answer "does this observed
execution admit a global memory order?" the same way: materialize the
constraint graph, topologically sort it.  They are three
implementations of *one algorithm family*, so a bug in the shared
semantics could slip past every differential test among them.  This
module supplies an independent family in the style of Roy et al.,
"Fast and Generalized Polynomial Time Memory Consistency Verification":
iterative closure over per-operation *frontiers* — no constraint graph,
no topological sort, no vertex ordering at all.

Every operation carries a frontier: the set of operations known to
precede it, represented as one arbitrary-precision bitmask over the
program's uids.  The model's ordering rules — program order (ppo),
the statically-known write serialization, reads-from and from-read —
each assert ``a before b`` facts; applying a fact folds ``a``'s
frontier (plus ``a`` itself) into ``b``'s.  Facts are applied to
fixpoint by a worklist; every application is monotone (frontiers only
grow, bounded by the full uid set), so the closure terminates in
polynomial time even on contradictory executions.  The execution
**violates** the model iff some operation's closed frontier contains
the operation itself — ``x before x`` is exactly an ordering cycle.
For the static-ws constraint system this repo checks, self-inclusion
under closure is equivalent to constraint-graph cyclicity, which is
what makes a four-way verdict agreement *meaningful*: two algorithm
families deciding the same predicate by different means
(the RealityCheck posture — confidence comes from independent oracles
agreeing, and a disagreement localizes a checker bug to one family).

The ordering rules come from :class:`repro.mcm.ConstraintRules`, the
one derivation the graph builder and the feasible enumerator also
consume; the two families share the rules and differ in the algorithm
that decides them (frontier closure here, topological sort there).
The rules themselves are pinned by hand-written tables and exhaustive
litmus ground truth (``tests/test_mcm_rules.py``,
``tests/test_poly_contract.py``).  Where the ``feasible`` oracle is
*static* (enumerate the whole outcome space, bounded), this pipeline is
*dynamic*: one closure per observed signature, exact at any program
size — it scales past enumerable signature spaces.

Family-specific statistics (``sorted_vertices``, verdict methods,
re-sort windows) are meaningless here — nothing is ever sorted, every
verdict is ``complete`` with a zero window — so cross-family
comparisons use :func:`violation_digest`, the (graphs, violating
indices) projection both families share.  Witness cycles are
reconstructed from the frontiers themselves
(:meth:`PolyVerifier.witness_cycle`); a constraint graph is rebuilt
only at display time, for :func:`repro.checker.results.describe_cycle`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.checker.results import COMPLETE, CheckReport, Verdict
from repro.instrument.signature import SignatureCodec
from repro.isa.program import TestProgram
from repro.mcm.model import MemoryModel
from repro.mcm.rules import ConstraintRules
from repro.obs import get_obs


@dataclass(frozen=True)
class ClosureOutcome:
    """The result of one frontier closure over a decoded execution.

    Attributes:
        violation: True when some frontier closed over its own op.
        cycle: witness ordering cycle (uids, first == last) or None.
        unions: frontier-fold rule applications that grew a frontier.
        dynamic_pairs: rf/fr ordering facts this execution contributed
            on top of the static skeleton.
    """

    violation: bool
    cycle: tuple | None
    unions: int
    dynamic_pairs: int


class PolyVerifier:
    """Frontier-closure verification for one (program, model) pair.

    Reads its ordering facts from its own :class:`ConstraintRules`
    instance — ppo and same-thread store chains statically, rf/fr per
    reads-from choice — and decides them with bitmask frontiers and a
    worklist fixpoint, no graph machinery: the same predicate the graph
    family decides, by an independent algorithm.

    The static skeleton's closure is computed once at construction;
    :meth:`verify` copies it and folds in one execution's dynamic facts,
    so per-signature cost is proportional to the dynamic closure alone.
    """

    def __init__(self, program: TestProgram, model: MemoryModel):
        self.program = program
        self.model = model
        self.num_ops = program.num_ops
        self.rules = ConstraintRules(program, model)
        self.static_pairs: tuple = self.rules.static_pairs
        successors: list[list[int]] = [[] for _ in range(self.num_ops)]
        for u, v in self.static_pairs:
            successors[u].append(v)
        self._static_successors: list[tuple] = [tuple(s) for s in successors]
        frontiers = [0] * self.num_ops
        self._static_unions = self._close(
            frontiers, self._static_successors, range(self.num_ops))
        self._static_frontiers = frontiers

    # -- closure ----------------------------------------------------------------------

    def _close(self, frontiers: list, successors: list, seeds) -> int:
        """Apply ordering facts to fixpoint; returns the union count.

        ``frontiers[v]`` is a bitmask of uids known to precede ``v``
        (mutated in place).  ``successors[u]`` lists the uids some rule
        orders after ``u``.  Each worklist step folds ``u``'s frontier
        plus ``u`` into every successor; a successor that grew is
        requeued.  Frontiers grow monotonically toward the full uid
        set, so the loop terminates even when the facts are cyclic —
        the cycle's frontiers simply saturate.
        """
        pending = deque(sorted(seeds))
        queued = bytearray(self.num_ops)
        for uid in pending:
            queued[uid] = 1
        unions = 0
        while pending:
            u = pending.popleft()
            queued[u] = 0
            flows = frontiers[u] | (1 << u)
            for v in successors[u]:
                if flows & ~frontiers[v]:
                    frontiers[v] |= flows
                    unions += 1
                    if not queued[v]:
                        queued[v] = 1
                        pending.append(v)
        return unions

    def verify(self, rf: dict) -> ClosureOutcome:
        """Close one decoded execution's facts; verdict plus witness."""
        dynamic: dict[int, list[int]] = {}
        dynamic_pairs = 0
        for load_uid in sorted(rf):
            for u, v in self.rules.choice_pairs(load_uid, rf[load_uid]):
                dynamic.setdefault(u, []).append(v)
                dynamic_pairs += 1
        static_successors = self._static_successors
        successors = list(static_successors)
        for u in dynamic:
            successors[u] = static_successors[u] + tuple(dynamic[u])
        frontiers = list(self._static_frontiers)
        unions = self._close(frontiers, successors, sorted(dynamic))
        cycle = None
        for uid in range(self.num_ops):
            if (frontiers[uid] >> uid) & 1:
                cycle = self._witness_cycle(frontiers, successors, uid)
                break
        return ClosureOutcome(violation=cycle is not None, cycle=cycle,
                              unions=unions, dynamic_pairs=dynamic_pairs)

    def _witness_cycle(self, frontiers: list, successors: list,
                       start: int) -> tuple:
        """Extract a witness ordering cycle through ``start``.

        ``start`` precedes itself, so some chain of rule facts leads
        from ``start`` back to ``start``, and every operation on such a
        chain is itself a predecessor of ``start``.  A breadth-first
        walk over the rule successors, restricted to that predecessor
        region, therefore finds the shortest such chain — every hop is
        a genuine rule fact, so the cycle renders faithfully against a
        rebuilt constraint graph (``describe_cycle``).
        """
        region = frontiers[start]
        parent = {start: None}
        pending = deque([start])
        while pending:
            u = pending.popleft()
            for v in successors[u]:
                if v == start:
                    path = [v, u]
                    node = parent[u]
                    while node is not None:
                        path.append(node)
                        node = parent[node]
                    path.reverse()
                    return tuple(path)
                if v not in parent and (region >> v) & 1:
                    parent[v] = u
                    pending.append(v)
        raise AssertionError("self-preceding op %d has no rule cycle" % start)


class PolySignatureSource:
    """A sorted unique-signature block bound to a poly verifier.

    The poly analogue of ``SignatureDeltaSource``/``PackedPlan``:
    exposes ``__len__``/``num_vertices``/``full_graph`` so
    ``CheckOutcome.graph_at`` and the conventional baseline's
    ``check_stream`` work unchanged.  Verification itself never touches
    a graph — ``full_graph`` exists for witness rendering and the
    baseline comparator only, and rebuilds lazily.
    """

    def __init__(self, codec: SignatureCodec, model: MemoryModel,
                 signatures: list):
        self.codec = codec
        self.model = model
        self.signatures = list(signatures)
        self.verifier = PolyVerifier(codec.program, model)
        #: per-check closure statistics, replaced by every check() pass
        self.stats = {"closure_unions": 0, "dynamic_pairs": 0}
        self._builder = None
        get_obs().emit("checker.poly.plan", signatures=len(self.signatures),
                       loads=len(codec.candidates),
                       static_pairs=len(self.verifier.static_pairs))

    def __len__(self) -> int:
        return len(self.signatures)

    @property
    def num_vertices(self) -> int:
        return self.codec.program.num_ops

    def full_graph(self, index: int):
        """Rebuild one signature's constraint graph (witness/baseline
        path only — the verifier never calls this)."""
        from repro.graph.builder import GraphBuilder
        if self._builder is None:
            self._builder = GraphBuilder(self.codec.program, self.model,
                                         ws_mode="static")
        return self._builder.build(self.codec.decode(self.signatures[index]))


class PolyChecker:
    """Collective checking over a :class:`PolySignatureSource`.

    Decodes each unique signature and runs one frontier closure; the
    verdict sequence matches the graph family's on every input (the
    four-way differential contract), while the methods/sorted-vertices
    accounting stays at its family-neutral floor: every verdict
    ``complete``, nothing resorted, ``sorted_vertices == 0``.

    ``initial_key`` is accepted for pipeline-interface parity and
    ignored: there is no sort whose tie-break it could steer.
    """

    def __init__(self, initial_key=None):
        self.initial_key = initial_key

    def check(self, source: PolySignatureSource) -> CheckReport:
        report = CheckReport()
        if not len(source):
            return report
        report.num_vertices_per_graph = source.num_vertices
        verifier = source.verifier
        decode = source.codec.decode
        unions = 0
        dynamic_pairs = 0
        obs = get_obs()
        with obs.span("checker.collective") as span:
            for index, signature in enumerate(source.signatures):
                outcome = verifier.verify(decode(signature))
                unions += outcome.unions
                dynamic_pairs += outcome.dynamic_pairs
                report.verdicts.append(
                    Verdict(index, outcome.violation, outcome.cycle,
                            COMPLETE, 0))
        report.elapsed = span.elapsed
        source.stats = {"closure_unions": unions,
                        "dynamic_pairs": dynamic_pairs}
        if obs.enabled:
            report.record_metrics(obs, "checker.collective", pipeline="poly")
            metrics = obs.metrics
            metrics.counter("checker.poly.signatures").inc(len(source))
            metrics.counter("checker.poly.closure_unions").inc(unions)
            metrics.counter("checker.poly.dynamic_pairs").inc(dynamic_pairs)
        return report


def violation_digest(report: CheckReport) -> dict:
    """The cross-family projection of a check report.

    Graph count plus violating indices — the facts every algorithm
    family must agree on.  Method/witness/sorted-vertices fields are
    family-specific (poly has no sorts; its witness is the shortest
    rule cycle, not the first one Kahn's algorithm trips over), so the
    differential test plane compares this digest across families and
    the full :meth:`CheckReport.summary` only within one.
    """
    return {"graphs": report.num_graphs,
            "violations": [v.index for v in report.violations]}
