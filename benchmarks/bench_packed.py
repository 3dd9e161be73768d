"""Packed checking core — Figure-9 campaigns through the array kernels.

For each Figure-9 configuration: run a campaign, compile the unique
signature block into a :class:`~repro.checker.packed.PackedPlan` (CSR
edge universe, mixed-radix digit rows, per-step delta tapes), then
time :class:`~repro.checker.packed.PackedChecker` replay against the
conventional per-graph topological sort and the streaming delta
pipeline.  Verdicts are asserted byte-identical three ways (packed ==
delta == legacy collective); the deterministic work counts — including
the digit-transition yield of the greedy similarity ordering, computed
by :func:`repro.analysis.similarity.digit_similarity` outside the
checked path — land in
``benchmarks/results/BENCH_packed.json``.

Two pins gate the run:

* packed replay is at least ``_MIN_SPEEDUP``× faster than conventional
  checking on *every* configuration (the tentpole's contract), and
* the greedy bucket order strictly reduces adjacent digit transitions
  below the ascending signature sort on every configuration.
"""

import json
import pathlib

from conftest import campaign_graphs, obs_off, record_table
from repro import obs
from repro.analysis.similarity import digit_similarity
from repro.checker import (
    BaselineChecker,
    CollectiveChecker,
    PackedChecker,
    PackedPlan,
    SignatureDeltaSource,
)
from repro.graph import GraphBuilder
from repro.harness import format_table
from repro.testgen import paper_config

#: same representative subset as ``bench_fig09_checking``
_CONFIGS = [
    "ARM-2-50-32", "ARM-2-100-32", "ARM-2-200-32", "ARM-4-50-64",
    "ARM-4-100-64", "ARM-7-50-64", "x86-2-50-32", "x86-2-100-32",
    "x86-4-50-64", "x86-4-100-64",
]
_ITERS = 600
_MIN_SPEEDUP = 5.0
_SNAPSHOT = pathlib.Path(__file__).parent / "results" / "BENCH_packed.json"


def _best_of(fn, *args, repeats=5, budget_s=0.02, cap=60):
    """Re-run a checker until a small time budget is spent; keep the
    fastest report.

    ``bench_fig09`` uses a fixed repeat count, which is fine at tens of
    milliseconds — but the packed replay puts the smallest configs well
    under wall-clock noise, so sub-millisecond runs auto-range (timeit
    style) until ``budget_s`` accumulates, capped at ``cap`` repeats.
    """
    best = None
    spent = 0.0
    runs = 0
    while runs < repeats or (spent < budget_s and runs < cap):
        report = obs_off(fn)(*args)
        runs += 1
        spent += report.elapsed
        if best is None or report.elapsed < best.elapsed:
            best = report
    return best


def _packed_rows():
    rows = []
    snapshot = {}
    sample = None
    for name in _CONFIGS:
        cfg = paper_config(name)
        campaign, result, graphs = campaign_graphs(cfg, iterations=_ITERS,
                                                   seed=31)
        signatures = result.sorted_signatures()
        builder = GraphBuilder(campaign.program, campaign.model,
                               ws_mode="static")
        source = SignatureDeltaSource(campaign.codec, builder, signatures)
        plan = PackedPlan(campaign.codec,
                          GraphBuilder(campaign.program, campaign.model,
                                       ws_mode="static"),
                          signatures)
        # one obs-enabled pass records the deterministic counters
        with obs.enabled_obs() as handle:
            packed = PackedChecker().check(plan)
            delta = CollectiveChecker().check_deltas(source)
            baseline = BaselineChecker().check(graphs)
        legacy = CollectiveChecker().check(graphs)
        assert packed.summary() == delta.summary() == legacy.summary()
        assert (packed.digits_changed, packed.edges_added,
                packed.edges_removed) == \
               (delta.digits_changed, delta.edges_added, delta.edges_removed)
        metrics = handle.metrics
        assert metrics.counter("checker.packed.digits_changed").value == \
            packed.digits_changed

        packed = _best_of(PackedChecker().check, plan)
        delta = _best_of(CollectiveChecker().check_deltas, source)
        baseline = _best_of(BaselineChecker().check, graphs)
        speedup = baseline.elapsed / packed.elapsed if packed.elapsed else 0
        similarity = digit_similarity(plan.digit_rows, plan.digit_columns)
        assert similarity["sorted_digits_changed"] == packed.digits_changed
        rows.append([
            name, len(graphs),
            packed.elapsed * 1e3, delta.elapsed * 1e3, baseline.elapsed * 1e3,
            speedup,
            similarity["sorted_digits_changed"],
            similarity["bucket_digits_changed"],
        ])
        snapshot[name] = {
            "graphs": packed.num_graphs,
            "violations": len(packed.violations),
            "sorted_vertices": packed.sorted_vertices,
            "baseline_sorted_vertices": baseline.sorted_vertices,
            "digits_changed": packed.digits_changed,
            "edges_added": packed.edges_added,
            "edges_removed": packed.edges_removed,
            "edge_universe": plan.num_edges,
            "digit_columns": similarity["digit_columns"],
            "sorted_digits_changed": similarity["sorted_digits_changed"],
            "bucket_digits_changed": similarity["bucket_digits_changed"],
            "info_ms": {"packed": round(packed.elapsed * 1e3, 3),
                        "delta": round(delta.elapsed * 1e3, 3),
                        "conventional": round(baseline.elapsed * 1e3, 3),
                        "speedup": round(speedup, 2)},
        }
        if name == "ARM-2-100-32":
            sample = plan
    return rows, snapshot, sample


def test_packed_core_speedup(benchmark):
    rows, snapshot, sample = _packed_rows()
    record_table("packed_checking", format_table(
        ["config", "unique graphs", "packed ms", "delta ms",
         "conventional ms", "speedup x", "sorted digit transitions",
         "bucket digit transitions"], rows,
        title="Packed checking core vs conventional and delta pipelines "
              "(%d iterations per test; pin: >=%.0fx everywhere)"
              % (_ITERS, _MIN_SPEEDUP)))
    _SNAPSHOT.parent.mkdir(exist_ok=True)
    _SNAPSHOT.write_text(json.dumps(
        {"schema": "repro.bench-packed", "version": 1,
         "iterations": _ITERS, "seed": 31, "configs": snapshot},
        indent=2, sort_keys=True) + "\n")

    # the tentpole contract: >=5x over conventional on every config
    slow = [(r[0], r[5]) for r in rows if r[5] < _MIN_SPEEDUP]
    assert not slow, "packed speedup below %.1fx: %r" % (_MIN_SPEEDUP, slow)
    # packed must also beat the delta pipeline it reproduces
    assert all(r[2] < r[3] for r in rows)
    # the greedy similarity order strictly reduces digit transitions
    assert all(r[7] < r[6] for r in rows)

    checker = PackedChecker()
    benchmark(obs_off(checker.check), sample)
