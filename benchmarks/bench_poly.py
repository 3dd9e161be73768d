"""Poly frontier closure — Figure-9 campaigns, cross-family head-to-head.

For each Figure-9 configuration: run a campaign, bind the unique
signature block to a :class:`~repro.checker.poly.PolySignatureSource`,
then time :class:`~repro.checker.poly.PolyChecker` verification against
the streaming delta pipeline and the conventional per-graph topological
sort.  Verdicts are asserted digest-identical across algorithm families
(poly == delta == legacy on graph count and violating indices — the
cross-family contract; full summaries only coincide within the graph
family) and the deterministic closure work counts — static ordering
facts, rule applications, dynamic rf/fr pairs — land in
``benchmarks/results/BENCH_poly.json`` with the embedded
``iterations``/``seed`` the ``repro bench diff --check`` watchdog
re-runs with.

The recorded per-cell timings are informational: poly is the oracle
family, run differentially for its independent verdicts, not for
throughput.
"""

import json
import pathlib

from conftest import campaign_graphs, obs_off, record_table
from repro import obs
from repro.checker import (
    BaselineChecker,
    CollectiveChecker,
    PolyChecker,
    PolySignatureSource,
    SignatureDeltaSource,
    violation_digest,
)
from repro.graph import GraphBuilder
from repro.harness import format_table
from repro.testgen import paper_config

#: same representative subset as ``bench_fig09_checking`` / ``bench_packed``
_CONFIGS = [
    "ARM-2-50-32", "ARM-2-100-32", "ARM-2-200-32", "ARM-4-50-64",
    "ARM-4-100-64", "ARM-7-50-64", "x86-2-50-32", "x86-2-100-32",
    "x86-4-50-64", "x86-4-100-64",
]
_ITERS = 600
_SNAPSHOT = pathlib.Path(__file__).parent / "results" / "BENCH_poly.json"


def _best_of(fn, *args, repeats=5, budget_s=0.02, cap=60):
    """Fastest report over an auto-ranged repeat budget (see
    ``bench_packed._best_of``)."""
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


def _poly_rows():
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
        delta_source = SignatureDeltaSource(campaign.codec, builder,
                                            signatures)
        source = PolySignatureSource(campaign.codec, campaign.model,
                                     signatures)
        # one obs-enabled pass records the deterministic counters
        with obs.enabled_obs() as handle:
            poly = PolyChecker().check(source)
        metrics = handle.metrics
        assert metrics.counter("checker.poly.signatures").value == \
            len(signatures)
        assert metrics.counter("checker.poly.closure_unions").value == \
            source.stats["closure_unions"]
        assert metrics.counter("checker.poly.dynamic_pairs").value == \
            source.stats["dynamic_pairs"]
        delta = CollectiveChecker().check_deltas(delta_source)
        legacy = CollectiveChecker().check(graphs)
        assert violation_digest(poly) == violation_digest(delta) == \
            violation_digest(legacy)

        poly = _best_of(PolyChecker().check, source)
        delta = _best_of(CollectiveChecker().check_deltas, delta_source)
        baseline = _best_of(BaselineChecker().check, graphs)
        cells = len(signatures) * campaign.program.num_ops
        rows.append([
            name, len(graphs),
            poly.elapsed * 1e3, delta.elapsed * 1e3, baseline.elapsed * 1e3,
            poly.elapsed * 1e6 / cells if cells else 0.0,
            source.stats["closure_unions"],
            source.stats["dynamic_pairs"],
        ])
        snapshot[name] = {
            "graphs": poly.num_graphs,
            "violations": len(poly.violations),
            "sorted_vertices": poly.sorted_vertices,
            "baseline_sorted_vertices": baseline.sorted_vertices,
            "digits_changed": poly.digits_changed,
            "edges_added": poly.edges_added,
            "edges_removed": poly.edges_removed,
            "static_pairs": len(source.verifier.static_pairs),
            "closure_unions": source.stats["closure_unions"],
            "dynamic_pairs": source.stats["dynamic_pairs"],
            "info_ms": {"poly": round(poly.elapsed * 1e3, 3),
                        "delta": round(delta.elapsed * 1e3, 3),
                        "conventional": round(baseline.elapsed * 1e3, 3),
                        "poly_us_per_cell": round(
                            poly.elapsed * 1e6 / cells, 4) if cells else 0.0},
        }
        if name == "ARM-2-100-32":
            sample = source
    return rows, snapshot, sample


def test_poly_cross_family_head_to_head(benchmark):
    rows, snapshot, sample = _poly_rows()
    record_table("poly_checking", format_table(
        ["config", "unique graphs", "poly ms", "delta ms",
         "conventional ms", "poly us/cell", "closure unions",
         "dynamic pairs"], rows,
        title="Poly frontier closure vs the graph family "
              "(%d iterations per test; digest parity pinned)" % _ITERS))
    _SNAPSHOT.parent.mkdir(exist_ok=True)
    _SNAPSHOT.write_text(json.dumps(
        {"schema": "repro.bench-poly", "version": 1,
         "iterations": _ITERS, "seed": 31, "configs": snapshot},
        indent=2, sort_keys=True) + "\n")

    # the oracle family must actually close something on every config
    assert all(r[6] > 0 and r[7] > 0 for r in rows)
    assert all(r[2] > 0 for r in rows)

    checker = PolyChecker()
    benchmark(obs_off(checker.check), sample)
