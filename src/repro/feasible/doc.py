"""Generator for ``docs/FEASIBLE.md`` (``repro feasible --doc``)."""

from __future__ import annotations

from repro.feasible.enumerator import DEFAULT_BUDGET, DEFAULT_SAMPLES


def feasible_markdown() -> str:
    """The committed reference for the static feasibility oracle."""
    from repro.lint.rules import all_rules

    lines = [
        "# `repro.feasible` — static MCM outcome enumeration",
        "",
        "Generated by `python -m repro feasible --doc`; do not edit by "
        "hand.",
        "",
        "## Feasibility semantics",
        "",
        "A reads-from assignment (one candidate source per load) is "
        "**feasible** under a memory model iff the static-ws constraint "
        "system it induces is acyclic:",
        "",
        "* **ppo** — the model's preserved-program-order edges "
        "(`MemoryModel.ppo_edges`, barriers as ordinary vertices);",
        "* **ws** — statically-known coherence order: same-thread "
        "same-address store chains, INIT before every store;",
        "* **rf** — source store → load, cross-thread only (a forwarded "
        "intra-thread store is not globally ordered with its load);",
        "* **fr** — load → the coherence-next store of its source's "
        "thread; an INIT reader precedes every thread's first store to "
        "the address.",
        "",
        "These are the rules every checker applies, derived once in "
        "`repro.mcm.ConstraintRules` and pinned on their own by "
        "hand-written and exhaustive litmus ground truth.  The enumerator "
        "decides them with its own cycle detection (a three-colour DFS, "
        "and a targeted reachability walk for prefix pruning), the graph "
        "checkers by topological sort and the poly pipeline by frontier "
        "closure — so a disagreement localizes a bug to one algorithm.",
        "",
        "The feasible **signature** set is the image of the feasible "
        "assignment set under the instrument weight tables; the mapping "
        "is a bijection, so outcome counts and signature counts agree.",
        "",
        "## Enumeration and budgets",
        "",
        "Loads are assigned in canonical (uid) order; constraint "
        "addition is monotone in the prefix, so any prefix whose partial "
        "graph is already cyclic prunes its entire subtree "
        "(**canonical-prefix pruning**; the pruned-assignment count is "
        "the product of the remaining candidate-set sizes).  An "
        "assignment that reaches full depth without closing a cycle is "
        "feasible, which gives the exhaustive-mode invariant "
        "`feasible == cardinality - assignments_pruned`.",
        "",
        "| knob | default | meaning |",
        "|---|---|---|",
        "| `budget` | %d | full enumeration runs only when the "
        "assignment space has at most this many members |" % DEFAULT_BUDGET,
        "| `samples` | %d | distinct seeded assignments drawn above the "
        "budget (`exhaustive=False`) |" % DEFAULT_SAMPLES,
        "",
        "Per-signature **membership** never samples: decode the "
        "signature, derive its constraint system, run one acyclicity "
        "test.  The cross-oracle therefore stays exact at any program "
        "size; only whole-set quantities (cardinality ratios, coverage "
        "denominators, fence lints) are budget-bound.",
        "",
        "## Cross-check verdict table",
        "",
        "`repro run --cross-check feasible` classifies every observed "
        "unique signature by feasible-set membership crossed with the "
        "collective checker's verdict:",
        "",
        "| member | checker violation | verdict | meaning |",
        "|---|---|---|---|",
        "| yes | no | `agree-clean` | both oracles accept the execution |",
        "| no | yes | `agree-violation` | hardware bug; both oracles "
        "agree |",
        "| no | no | `checker-miss` | hardware bug the checker passed — "
        "a membership miss is a detection on its own |",
        "| yes | yes | `checker-false-alarm` | the checker flagged a "
        "feasible execution: a checker bug |",
        "",
        "The last two rows are **disagreements**: they localize a bug to "
        "the checker (or the enumerator) rather than the hardware, and "
        "they flip the exit code of `repro run --cross-check feasible` "
        "and `repro check --cross-check feasible` to 1.  `repro mutate "
        "--cross-check feasible` adds a `feasible` detection channel "
        "(consulted after `assert`, before `violation`) that fires on "
        "any out-of-feasible-set signature.",
        "",
        "## Coverage",
        "",
        "When enumeration is exhaustive, the cross-check also reports "
        "`observed/feasible` — the fraction of the architecturally "
        "reachable outcome space the campaign visited — exported as the "
        "`feasible.coverage.observed` / `feasible.coverage.feasible` / "
        "`feasible.coverage.ratio` gauges and printed by `repro feasible "
        "--coverage`.  This is the steering signal a coverage-guided "
        "test generator consumes.",
        "",
        "## Lint rules (`MTC10x`)",
        "",
        "| Rule | Name | Severity | Rationale |",
        "|---|---|---|---|",
    ]
    for rule in all_rules():
        if rule.family != "feasible":
            continue
        lines.append("| %s | `%s` | %s | %s |"
                     % (rule.id, rule.name, rule.severity, rule.rationale))
    lines += [
        "",
        "`MTC102` soundness: removing a barrier only drops constraints, "
        "so `feasible(without) ⊇ feasible(with)`; equal counts therefore "
        "prove equal sets, and comparing counts is exact.",
        "",
        "## CLI",
        "",
        "```",
        "repro feasible [config flags | --litmus | --input FILE]",
        "               [--model sc|tso|weak] [--budget N] [--samples N]",
        "               [--list-outcomes] [--coverage --iterations N]",
        "               [--json] [--doc]",
        "```",
        "",
        "`--list-outcomes` prints every feasible signature with its "
        "decoded per-load outcome; `--coverage` executes the program and "
        "reports observed/feasible (exit 1 when any observed signature "
        "falls outside the feasible set); `--json` emits one document "
        "with the enumeration statistics.",
        "",
    ]
    return "\n".join(lines)
