"""Bounded static enumeration of architecturally feasible outcomes.

Given a test program and a memory model, compute the complete set of
reads-from assignments — and therefore signatures, via the instrument
weight tables — that the model's static-ws constraint system admits.
An assignment is *feasible* iff the constraint graph it induces (ppo
edges, statically-known coherence order, rf/fr edges) is acyclic; the
enumerator walks the assignment space load-by-load in canonical (uid)
order, pruning every subtree whose prefix is already cyclic.  Edge
addition is monotone in the prefix, so the pruning is sound: a cyclic
prefix can never become acyclic by assigning more loads.

Above :data:`DEFAULT_BUDGET` assignments the full walk is replaced by a
seeded sample (``exhaustive=False``); per-signature *membership*
(:func:`signature_feasible`) never samples — decode, derive, one
acyclicity test — so the checker cross-oracle stays exact at any size.

The constraint rules come from :class:`repro.mcm.ConstraintRules`, the
one derivation every checker shares; the cycle tests here are the
enumerator's own.  A three-colour DFS (:func:`_has_cycle`) decides one
full assignment and a targeted reachability walk (:func:`_reaches`)
prunes each prefix incrementally; both measured faster than the poly
frontier closure, with identical verdicts, for membership tests and for
pruned enumeration alike.  So the enumerator, the poly closure and the
graphs' topological sort decide the same rules by three different
algorithms, which is what keeps the cross-check a cross-oracle rather
than a tautology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.instrument.signature import Signature, SignatureCodec
from repro.isa.program import TestProgram
from repro.mcm.model import MemoryModel
from repro.mcm.rules import ConstraintRules
from repro.obs import get_obs

#: full enumeration runs only up to this many rf assignments
DEFAULT_BUDGET = 4096
#: seeded assignments drawn above the budget
DEFAULT_SAMPLES = 64

_WHITE, _GREY, _BLACK = 0, 1, 2


def _has_cycle(adjacency: dict, num_vertices: int) -> bool:
    """Whole-graph cycle test: iterative three-color DFS."""
    color = [_WHITE] * num_vertices
    for root in range(num_vertices):
        if color[root] != _WHITE:
            continue
        color[root] = _GREY
        stack = [(root, iter(adjacency.get(root, ())))]
        while stack:
            node, edges = stack[-1]
            succ = next(edges, None)
            if succ is None:
                color[node] = _BLACK
                stack.pop()
            elif color[succ] == _GREY:
                return True
            elif color[succ] == _WHITE:
                color[succ] = _GREY
                stack.append((succ, iter(adjacency.get(succ, ()))))
    return False


def _reaches(adjacency: dict, start: int, target: int) -> bool:
    """Targeted reachability: is there a path start -> target?"""
    if start == target:
        return True
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for succ in adjacency.get(node, ()):
            if succ == target:
                return True
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False


class FeasibilityOracle:
    """The static-ws constraint system of one (program, model) pair.

    Holds its own :class:`ConstraintRules` instance and decides
    acyclicity with its own cycle detection.
    """

    def __init__(self, program: TestProgram, model: MemoryModel):
        self.program = program
        self.model = model
        self.num_ops = program.num_ops
        self.rules = ConstraintRules(program, model)
        self.static_pairs: tuple = self.rules.static_pairs

    def static_adjacency(self) -> dict:
        """Fresh adjacency holding only the static edges."""
        adjacency: dict[int, list[int]] = {}
        for u, v in self.static_pairs:
            adjacency.setdefault(u, []).append(v)
        return adjacency

    def is_feasible(self, rf: dict) -> bool:
        """Exact feasibility of one full reads-from assignment."""
        adjacency = self.static_adjacency()
        for load_uid, source in rf.items():
            for u, v in self.rules.choice_pairs(load_uid, source):
                adjacency.setdefault(u, []).append(v)
        return not _has_cycle(adjacency, self.num_ops)


@dataclass(frozen=True)
class FeasibleSet:
    """The (complete or sampled) feasible outcome set of one test.

    When ``exhaustive`` is True, ``signatures`` is the *entire* feasible
    signature set and ``cardinality - len(signatures) ==
    assignments_pruned``.  When False, ``signatures`` holds the feasible
    members of a seeded sample of ``sampled`` assignments — a witness
    subset, not the full set.
    """

    program_name: str
    model_name: str
    cardinality: int
    signatures: frozenset
    exhaustive: bool
    budget: int
    prefixes_explored: int = 0
    assignments_pruned: int = 0
    sampled: int = 0
    seed: int = 0

    @property
    def feasible_count(self) -> int:
        return len(self.signatures)

    @property
    def infeasible_count(self):
        """Exact infeasible-assignment count; None when sampled."""
        if not self.exhaustive:
            return None
        return self.cardinality - len(self.signatures)

    @property
    def pruning_factor(self) -> float:
        """How much larger the space is than the surviving subtree.

        ``cardinality / (cardinality - assignments_pruned)``: 1.0 means
        nothing was pruned, larger means canonical-prefix cuts skipped
        proportionally more of the space.
        """
        survivors = self.cardinality - self.assignments_pruned
        return self.cardinality / max(1, survivors)

    def sorted_signatures(self) -> list:
        return sorted(self.signatures)

    def __contains__(self, signature) -> bool:
        return signature in self.signatures

    def to_json(self) -> dict:
        doc = {
            "program": self.program_name,
            "model": self.model_name,
            "cardinality_bits": self.cardinality.bit_length(),
            "feasible": len(self.signatures),
            "exhaustive": self.exhaustive,
            "budget": self.budget,
            "prefixes_explored": self.prefixes_explored,
            "assignments_pruned": self.assignments_pruned,
            "sampled": self.sampled,
        }
        if self.exhaustive:
            doc["cardinality"] = self.cardinality
            doc["pruning_factor"] = round(self.pruning_factor, 4)
        return doc


def enumerate_feasible(program: TestProgram, model: MemoryModel, *,
                       codec: SignatureCodec = None,
                       register_width: int = 64,
                       budget: int = DEFAULT_BUDGET,
                       samples: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> FeasibleSet:
    """Compute a program's feasible signature set under ``model``.

    Exhaustive (with canonical-prefix pruning) when the assignment space
    has at most ``budget`` members, otherwise a seeded sample of
    ``samples`` distinct assignments.
    """
    if codec is None:
        codec = SignatureCodec(program, register_width)
    oracle = FeasibilityOracle(program, model)
    candidates = codec.candidates
    load_uids = sorted(candidates)
    cardinality = 1
    for uid in load_uids:
        cardinality *= len(candidates[uid])
    obs = get_obs()
    with obs.span("feasible.enumerate"):
        if cardinality <= budget:
            fset = _enumerate_exhaustive(
                oracle, codec, load_uids, cardinality, budget, seed)
        else:
            fset = _enumerate_sampled(
                oracle, codec, load_uids, cardinality, budget, samples, seed)
    if obs.enabled:
        metrics = obs.metrics
        metrics.counter("feasible.enumerations").inc()
        if not fset.exhaustive:
            metrics.counter("feasible.sampled_enumerations").inc()
        metrics.counter("feasible.prefixes_explored").inc(
            fset.prefixes_explored)
        metrics.gauge("feasible.outcomes").set(fset.feasible_count)
        metrics.gauge("feasible.cardinality_bits").set(
            cardinality.bit_length())
    return fset


def _enumerate_exhaustive(oracle: FeasibilityOracle, codec: SignatureCodec,
                          load_uids: list, cardinality: int, budget: int,
                          seed: int) -> FeasibleSet:
    adjacency = oracle.static_adjacency()
    common = dict(program_name=oracle.program.name,
                  model_name=oracle.model.name, cardinality=cardinality,
                  exhaustive=True, budget=budget, seed=seed)
    if _has_cycle(adjacency, oracle.num_ops):
        # the static skeleton itself is contradictory: nothing is feasible
        return FeasibleSet(signatures=frozenset(), prefixes_explored=0,
                           assignments_pruned=cardinality, **common)
    candidates = codec.candidates
    n = len(load_uids)
    # assignments below each DFS level, for pruned-subtree accounting
    suffix = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * len(candidates[load_uids[i]])
    feasible: list = []
    assignment: dict = {}
    stats = {"prefixes": 0, "pruned": 0}

    def push(batch) -> bool:
        """Append a choice's pairs; True when any closes a cycle."""
        for u, v in batch:
            adjacency.setdefault(u, []).append(v)
        return any(_reaches(adjacency, v, u) for u, v in batch)

    def pop(batch) -> None:
        for u, _ in reversed(batch):
            adjacency[u].pop()

    def walk(level: int) -> None:
        if level == n:
            feasible.append(codec.encode(assignment))
            return
        uid = load_uids[level]
        for source in candidates[uid]:
            stats["prefixes"] += 1
            batch = oracle.rules.choice_pairs(uid, source)
            cyclic = push(batch)
            if cyclic:
                stats["pruned"] += suffix[level + 1]
            else:
                assignment[uid] = source
                walk(level + 1)
                del assignment[uid]
            pop(batch)

    walk(0)
    return FeasibleSet(signatures=frozenset(feasible),
                       prefixes_explored=stats["prefixes"],
                       assignments_pruned=stats["pruned"], **common)


def _enumerate_sampled(oracle: FeasibilityOracle, codec: SignatureCodec,
                       load_uids: list, cardinality: int, budget: int,
                       samples: int, seed: int) -> FeasibleSet:
    rng = random.Random(seed)
    candidates = codec.candidates
    radices = [len(candidates[uid]) for uid in load_uids]
    tried: set = set()
    feasible: set = set()
    # cardinality > budget >= samples, so distinct draws always exist;
    # the attempt cap only guards against pathological collision streaks
    attempts = 0
    while len(tried) < samples and attempts < samples * 8:
        attempts += 1
        key = tuple(rng.randrange(r) for r in radices)
        if key in tried:
            continue
        tried.add(key)
        rf = {uid: candidates[uid][index]
              for uid, index in zip(load_uids, key)}
        if oracle.is_feasible(rf):
            feasible.add(codec.encode(rf))
    return FeasibleSet(program_name=oracle.program.name,
                       model_name=oracle.model.name,
                       cardinality=cardinality,
                       signatures=frozenset(feasible), exhaustive=False,
                       budget=budget, sampled=len(tried), seed=seed)


def signature_feasible(codec: SignatureCodec, model: MemoryModel,
                       signature: Signature,
                       oracle: FeasibilityOracle = None) -> bool:
    """Exact feasibility of one observed signature (never sampled).

    Decode to the reads-from map, derive the induced constraint system,
    run one acyclicity test.  Pass a prebuilt ``oracle`` when checking
    many signatures of the same test.
    """
    if oracle is None:
        oracle = FeasibilityOracle(codec.program, model)
    return oracle.is_feasible(codec.decode(signature))
