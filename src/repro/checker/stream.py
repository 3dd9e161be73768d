"""Arrival-order streaming collective checking (the serve ingest path).

:meth:`CollectiveChecker.check_deltas
<repro.checker.collective.CollectiveChecker.check_deltas>` consumes a
*complete* sorted signature sequence; a checking service cannot wait for
completeness — each device iteration lands one more signature.  This
module provides the resident form: a :class:`StreamingCollectiveChecker`
holds the delta pipeline's live state (one refcounted graph, topological
order, position/indegree scratch arrays, pending edge-presence changes)
across calls, and :meth:`~StreamingCollectiveChecker.feed` advances it
by exactly one signature in O(changed digits + re-sort window).

Two properties the serve daemon builds on:

* **Order-independent verdicts.**  Whether a signature's constraint
  graph is cyclic does not depend on checking order, so the set of
  violating signatures reported by any arrival order equals the batch
  pipeline's (property-tested in ``tests/test_checker_stream.py``).
  Per-verdict *method* statistics (no-resort vs windowed) legitimately
  differ — arrival order is rarely the similarity-maximizing sorted
  order.
* **Canonical finalization.**  :meth:`~StreamingCollectiveChecker.
  finalize` replays the accepted unique signatures, sorted ascending,
  through the stock batch pipeline — the resulting
  :class:`~repro.checker.results.CheckReport` is byte-identical to
  ``repro run --check-pipeline delta`` over the same multiset, which is
  the serve differential pin.
"""

from __future__ import annotations

from array import array

from repro.checker.collective import CollectiveChecker
from repro.checker.delta import SignatureDeltaSource
from repro.checker.results import (
    COMPLETE,
    INCREMENTAL,
    NO_RESORT,
    CheckReport,
    Verdict,
)
from repro.errors import CheckerError
from repro.graph.builder import GraphBuilder
from repro.graph.delta import DeltaGraphState
from repro.graph.toposort import find_cycle
from repro.instrument.signature import Signature, SignatureCodec
from repro.obs import get_obs


class StreamingCollectiveChecker:
    """Feeds one signature at a time through the live delta state.

    Callers feed each *unique* signature once, in any order (the serve
    session's dedup store filters repeats before they reach this class);
    feeding a duplicate is not an error but wastes a delta step.

    Args:
        codec: the campaign's instrumentation codec.
        builder: a ``ws_mode="static"`` graph builder for the same test.
        initial_key: tie-breaking priority for complete sorts, as in
            :class:`~repro.checker.collective.CollectiveChecker`.
    """

    def __init__(self, codec: SignatureCodec, builder: GraphBuilder,
                 initial_key=None):
        if builder.ws_mode != "static":
            raise CheckerError(
                "streaming checking requires ws_mode='static' (observed-ws "
                "graphs are not a function of the signature alone)")
        if builder.program is not codec.program:
            raise CheckerError(
                "codec and builder instrument different programs")
        self.codec = codec
        self.builder = builder
        self.initial_key = initial_key
        self.signatures: list = []
        #: interim report over the arrival order (violation verdicts are
        #: order-independent; method statistics are not)
        self.report = CheckReport()
        self.report.num_vertices_per_graph = builder.program.num_ops
        num_vertices = builder.program.num_ops
        self._order: list = None
        self._position = array("i", [0] * num_vertices)
        self._indegree = array("i", [0] * num_vertices)
        self._state: DeltaGraphState = None
        self._pending: dict = {}
        self._previous: Signature = None

    def __len__(self) -> int:
        return len(self.signatures)

    @property
    def violations(self) -> list:
        """Interim violating verdicts, in arrival order."""
        return self.report.violations

    def violating_signatures(self) -> list:
        return [self.signatures[v.index] for v in self.report.violations]

    # -- the streaming step ------------------------------------------------------------

    def feed(self, signature: Signature) -> Verdict:
        """Advance the live state by one signature; returns its verdict."""
        index = len(self.signatures)
        num_vertices = self.report.num_vertices_per_graph
        obs = get_obs()
        with obs.span("checker.stream") as span:
            if index == 0:
                rf = self.codec.decode(signature)
                self._state = DeltaGraphState(
                    num_vertices,
                    list(self.builder.iter_execution_pairs(rf)))
            else:
                changes = self.codec.decode_delta(self._previous, signature)
                removed: list = []
                added: list = []
                edge_pairs = self.builder.dynamic_edge_pairs
                for load_uid, old_source, new_source in changes:
                    removed.extend(edge_pairs(load_uid, old_source))
                    added.extend(edge_pairs(load_uid, new_source))
                self.report.digits_changed += len(changes)
                self.report.edges_removed += len(removed)
                self.report.edges_added += len(added)
                appeared, vanished = self._state.apply_pairs(removed, added)
                if self._order is not None:
                    pending = self._pending
                    for pair in appeared:
                        if pending.pop(pair, 0) >= 0:
                            pending[pair] = 1
                    for pair in vanished:
                        if pending.pop(pair, 0) <= 0:
                            pending[pair] = -1
            self.signatures.append(signature)
            self._previous = signature
            verdict = self._verdict(index, signature, num_vertices)
        self.report.elapsed += span.elapsed
        self.report.verdicts.append(verdict)
        return verdict

    def _verdict(self, index: int, signature, num_vertices: int) -> Verdict:
        """The delta pipeline's per-execution verdict logic, one step."""
        if self._order is None:
            # no valid base yet: completely check this one graph (the
            # live adjacency matches built-graph insertion order only at
            # index 0; later complete sorts rebuild, as in check_deltas)
            adjacency = (self._state.adjacency if index == 0
                         else self._full_graph(signature).adjacency)
            candidate = CollectiveChecker._complete_sort(
                adjacency, num_vertices, self._indegree, self.initial_key)
            self.report.sorted_vertices += num_vertices
            if candidate is None:
                cycle = tuple(find_cycle(range(num_vertices), adjacency))
                return Verdict(index, True, cycle, COMPLETE, num_vertices)
            self._order = candidate
            for pos, v in enumerate(candidate):
                self._position[v] = pos
            self._pending.clear()
            return Verdict(index, False, None, COMPLETE, num_vertices)

        position = self._position
        lead = num_vertices
        trail = -1
        for (u, v), change in self._pending.items():
            if change < 0:
                continue
            pu, pv = position[u], position[v]
            if pu > pv:
                if pv < lead:
                    lead = pv
                if pu > trail:
                    trail = pu
        if trail < 0:
            self._pending.clear()
            return Verdict(index, False, None, NO_RESORT, 0)

        order = self._order
        window = order[lead:trail + 1]
        self.report.sorted_vertices += len(window)
        new_window = CollectiveChecker._window_sort(
            window, self._state.adjacency, order, position, self._indegree,
            lead, trail)
        if new_window is None:
            in_window = lambda w: lead <= position[w] <= trail
            cycle = tuple(find_cycle(
                window, self._full_graph(signature).adjacency,
                membership=in_window))
            return Verdict(index, True, cycle, INCREMENTAL, len(window))
        order[lead:trail + 1] = new_window
        for offset, v in enumerate(new_window):
            position[v] = lead + offset
        self._pending.clear()
        return Verdict(index, False, None, INCREMENTAL, len(window))

    def _full_graph(self, signature):
        return self.builder.build(self.codec.decode(signature))

    # -- canonical finalization --------------------------------------------------------

    def finalize(self, signatures=None,
                 pipeline: str = "delta") -> CheckReport:
        """The canonical batch report over everything fed so far.

        Replays the accepted signatures in ascending order through the
        stock :meth:`CollectiveChecker.check_deltas` pipeline — the
        exact code path of ``repro run --check-pipeline delta`` — so the
        returned report's :meth:`~repro.checker.results.CheckReport.
        summary` is byte-identical to the batch run's for the same
        unique-signature set, regardless of arrival order.

        ``signatures`` overrides the replayed set: serve sessions pass
        their full unique multiset, which includes dedup hits whose live
        check was answered by the store and therefore never fed here.

        ``pipeline="packed"`` replays through the array-compiled
        :class:`~repro.checker.packed.PackedChecker` instead — same
        summary by construction, faster on large blocks.
        ``pipeline="poly"`` finalizes through the frontier-closure
        family (:class:`~repro.checker.poly.PolyChecker`): identical
        violation verdicts, family-specific method statistics.
        ``pipeline="auto"`` is an alias of ``"packed"``.
        """
        pool = self.signatures if signatures is None else signatures
        block = sorted(set(pool))
        if pipeline == "auto":
            from repro.checker.dispatch import choose_pipeline
            pipeline = choose_pipeline(self.builder.ws_mode)
        if pipeline == "packed":
            from repro.checker.packed import PackedChecker, PackedPlan
            plan = PackedPlan(self.codec, self.builder, block)
            return PackedChecker(self.initial_key).check(plan)
        if pipeline == "poly":
            from repro.checker.poly import PolyChecker, PolySignatureSource
            source = PolySignatureSource(self.codec, self.builder.model,
                                         block)
            return PolyChecker(self.initial_key).check(source)
        source = SignatureDeltaSource(self.codec, self.builder, block)
        return CollectiveChecker(self.initial_key).check_deltas(source)
