"""Building constraint graphs from decoded signatures (paper Section 3.2).

Everything static — the MCM's intra-thread edges, store locations, vertex
IDs — is computed once per test at construction; :meth:`GraphBuilder.build`
then adds the dynamic edges of one execution.  The static-ws rules are
derived once, in :class:`repro.mcm.ConstraintRules`; this module types
their pairs as edges.

Dependency-edge rules (notation of [4, 32], as adopted by the paper):

* ``rf``: source store -> load, *skipped when intra-thread* — a forwarded
  store is not globally ordered with its load (paper footnote 4).
* ``ws``: write-serialization order of same-address stores.
* ``fr``: load -> a store known to coherence-follow the load's source.

Write-serialization handling comes in two modes:

* ``"static"`` (default, paper-faithful): the paper gathers "the
  write-serialization order ... statically during the instrumentation
  process".  Only statically-known coherence order is used: same-thread
  same-address store chains (program order implies coherence order), and
  INIT precedes every store.  fr edges point from a load to the po-next
  same-address store of its source's thread (or, for INIT readers, to
  every thread's first store to the address).  Graphs then depend only on
  the signature's rf choices, which is what makes signature-adjacent
  graphs nearly identical — the property the collective checker exploits.

* ``"observed"``: the execution substrate's full per-address coherence
  order is added as ws chains with exact fr edges.  Strictly stronger
  checking (catches pure write-serialization cycles like 2+2W) at the
  cost of per-execution graph variety; used as an ablation and for the
  detailed-simulator bug studies.
"""

from __future__ import annotations

from repro.errors import CheckerError
from repro.isa.instructions import INIT
from repro.isa.program import TestProgram
from repro.mcm.model import MemoryModel
from repro.mcm.rules import ConstraintRules
from repro.graph.constraint_graph import FR, PO, RF, WS, ConstraintGraph, Edge


class GraphBuilder:
    """Constructs per-execution constraint graphs for one test program.

    The ordering rules come from one :class:`~repro.mcm.ConstraintRules`
    instance; the builder only types its pairs: ppo pairs are ``po``
    edges, store chains ``ws``, and a load's dynamic pair is ``rf`` when
    it ends at the load, ``fr`` otherwise.
    """

    def __init__(self, program: TestProgram, model: MemoryModel,
                 ws_mode: str = "static"):
        if ws_mode not in ("static", "observed"):
            raise CheckerError("ws_mode must be 'static' or 'observed'")
        self.program = program
        self.model = model
        self.ws_mode = ws_mode
        self.rules = ConstraintRules(program, model)
        self.static_edges: tuple[Edge, ...] = tuple(
            [Edge(src, dst, PO) for src, dst in self.rules.ppo_pairs]
            + [Edge(src, dst, WS) for src, dst in self.rules.ws_pairs])
        #: (load uid, source) -> dynamic pair tuple; filled by dynamic_edge_pairs
        self._edge_table: dict[tuple[int, object],
                               tuple[tuple[int, int], ...]] = {}
        #: (load uid, source) -> the same pairs as typed edges, for build()
        self._typed_table: dict[tuple[int, object], tuple[Edge, ...]] = {}

    def build(self, rf: dict[int, object], ws: dict[int, list[int]] = None) -> ConstraintGraph:
        """Build the constraint graph of one execution.

        Args:
            rf: map of load uid -> observed source (store uid or INIT).
            ws: map of address -> store uids in coherence order; required
                (and used) only in ``"observed"`` mode.

        Returns:
            The typed constraint graph; cyclic iff the execution violates
            the memory model (up to the completeness of the ws mode).
        """
        graph = ConstraintGraph(self.program.num_ops, self.static_edges)
        if self.ws_mode == "observed":
            self._add_observed(graph, rf, ws)
            return graph
        typed = self._typed_table
        add_edge = graph.add_edge
        for key in rf.items():
            edges = typed.get(key)
            if edges is None:
                load_uid = key[0]
                edges = tuple(Edge(u, v, RF if v == load_uid else FR)
                              for u, v in self.dynamic_edge_pairs(*key))
                typed[key] = edges
            for edge in edges:
                add_edge(edge)
        return graph

    # -- per-load edge table (delta pipeline) -----------------------------------

    def dynamic_edge_pairs(self, load_uid: int, source) -> tuple:
        """The exact dynamic (src, dst) pairs one ``(load, rf source)``
        choice contributes.

        Static-ws mode factors the per-execution edges of :meth:`build`
        into independent per-load contributions (each load's rf/fr edges
        depend only on its own observed source), so the edge delta
        between two signature-adjacent graphs is a table lookup over the
        changed digits.  Entries are memoized per (load, candidate) —
        over a checking stream the table converges to the full static
        (load, rf-candidate) edge table with each entry computed once.
        Bare pairs, not typed :class:`Edge` objects: the delta pipeline
        tracks presence only (witness rendering rebuilds the one
        violating graph, types intact).
        """
        if self.ws_mode != "static":
            raise CheckerError("per-load edge tables exist only in static "
                               "ws_mode (observed graphs are not a function "
                               "of the signature alone)")
        key = (load_uid, source)
        pairs = self._edge_table.get(key)
        if pairs is None:
            pairs = self.rules.choice_pairs(load_uid, source)
            self._edge_table[key] = pairs
        return pairs

    @property
    def static_pairs(self) -> tuple:
        """Bare (src, dst) pairs of every static edge, with multiplicity."""
        return self.rules.static_pairs

    def load_edge_table(self, candidates: dict) -> dict:
        """Eagerly materialize the complete (load, candidate) edge table.

        Equivalent to what a delta-checking stream fills lazily through
        :meth:`dynamic_edge_pairs`, but computed up front in deterministic
        (uid, candidate-order) order — the packed pipeline builds its flat
        edge universe from this table once per campaign.

        Args:
            candidates: load uid -> rf candidate list (the codec's static
                analysis), candidates in canonical order.

        Returns:
            The (load uid, source) -> pair-tuple table, shared with the
            builder's memo (later lookups are hits).
        """
        for uid in sorted(candidates):
            for source in candidates[uid]:
                self.dynamic_edge_pairs(uid, source)
        return self._edge_table

    def iter_execution_pairs(self, rf: dict[int, object]):
        """All (src, dst) pairs of one static-ws execution *with
        multiplicity*.

        Unlike :meth:`build` this does not deduplicate pairs — a dynamic
        edge that coincides with a static one appears twice — which is
        exactly what a refcounted delta graph state needs as its base
        (the static contributor must survive the dynamic one's removal).
        """
        yield from self.rules.static_pairs
        for load_uid, source in rf.items():
            yield from self.dynamic_edge_pairs(load_uid, source)

    # -- observed mode ------------------------------------------------------------

    def _add_observed(self, graph: ConstraintGraph, rf: dict[int, object],
                      ws: dict[int, list[int]]) -> None:
        if ws is None:
            raise CheckerError("observed ws_mode requires a ws order")
        program = self.program
        # A missing chain would silently weaken the graph (dropped ws/fr
        # edges can hide violations), so coverage is mandatory.
        missing = {st.addr for st in program.stores if st.addr not in ws}
        if missing:
            raise CheckerError(
                "observed ws order missing chains for store-bearing "
                "addresses %s (was the dump saved without ws?)"
                % sorted(missing))
        next_in_ws: dict[int, int] = {}
        first_in_ws: dict[int, int] = {}
        for addr, chain in ws.items():
            expected = {st.uid for st in program.stores_to(addr)}
            if set(chain) != expected:
                raise CheckerError(
                    "ws chain for address 0x%x lists %r, program has %r"
                    % (addr, sorted(chain), sorted(expected)))
            if chain:
                first_in_ws[addr] = chain[0]
            for a, b in zip(chain, chain[1:]):
                graph.add_edge(Edge(a, b, WS))
                next_in_ws[a] = b

        for load_uid, source in rf.items():
            load_op = program.op(load_uid)
            if source is INIT or source == INIT:
                successor = first_in_ws.get(load_op.addr)
            else:
                store_op = program.op(source)
                if store_op.thread != load_op.thread:
                    graph.add_edge(Edge(source, load_uid, RF))
                successor = next_in_ws.get(source)
            if successor is not None:
                graph.add_edge(Edge(load_uid, successor, FR))
