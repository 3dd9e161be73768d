"""The ordering rules of the static-ws constraint system (paper Section 3.2).

One derivation, shared by every checker: the graph builder types the
pairs into constraint-graph edges, the poly verifier folds them into
frontiers and the feasible enumerator walks them for cycles.  Each rule
asserts ``a before b`` pairs over operation uids:

* ``ppo``: the model's intra-thread ordering (:meth:`MemoryModel.ppo_edges`);
* ``ws``: statically-known write serialization — program order among
  same-thread same-address stores, with INIT coherence-first;
* ``rf``: source store -> load, skipped when intra-thread (a forwarded
  store is not globally ordered with its load, paper footnote 4);
* ``fr``: load -> the coherence-next store of its source — for an INIT
  reader, every thread's first store to the address.

The first two are static (:attr:`ConstraintRules.static_pairs`); rf and
fr depend on one load's observed source (:meth:`ConstraintRules.choice_pairs`).
"""

from __future__ import annotations

from repro.isa.instructions import INIT
from repro.isa.program import TestProgram
from repro.mcm.model import MemoryModel


class ConstraintRules:
    """The ordering rules of one (program, model) pair.

    Attributes:
        ppo_pairs: the model's intra-thread ordering pairs.
        ws_pairs: same-thread same-address store chains, in program order.
        static_pairs: ``ppo_pairs`` followed by ``ws_pairs``.
        first_stores: address -> each thread's first store uid to it.
        next_store: store uid -> its coherence-next store uid, where the
            program fixes one.
    """

    def __init__(self, program: TestProgram, model: MemoryModel):
        self.program = program
        # a pair whose src and dst coincide carries no ordering
        self.ppo_pairs: tuple = tuple(
            (src, dst) for tp in program.threads
            for src, dst in model.ppo_edges(tp) if src != dst)
        ws_pairs = []
        self.next_store: dict[int, int] = {}
        self.first_stores: dict[int, list[int]] = {}
        for tp in program.threads:
            latest: dict[int, int] = {}
            for op in tp.ops:
                if not op.is_store:
                    continue
                prev = latest.get(op.addr)
                if prev is not None:
                    ws_pairs.append((prev, op.uid))
                    self.next_store[prev] = op.uid
                else:
                    self.first_stores.setdefault(op.addr, []).append(op.uid)
                latest[op.addr] = op.uid
        self.ws_pairs: tuple = tuple(ws_pairs)
        self.static_pairs: tuple = self.ppo_pairs + self.ws_pairs

    def choice_pairs(self, load_uid: int, source) -> tuple:
        """The rf and fr pairs one load's reads-from choice induces."""
        load_op = self.program.op(load_uid)
        if source == INIT:
            return tuple((load_uid, st)
                         for st in self.first_stores.get(load_op.addr, ()))
        pairs = []
        if self.program.op(source).thread != load_op.thread:
            pairs.append((source, load_uid))
        follower = self.next_store.get(source)
        if follower is not None:
            pairs.append((load_uid, follower))
        return tuple(pairs)
