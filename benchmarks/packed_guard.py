"""Deterministic perf-regression guard for the packed checking core.

Runs the shared reduced Figure-9 configuration table (see
``guard_common.py``) through the ``packed`` pipeline,
enforces three-way verdict parity (packed == delta == legacy graphs,
collective and baseline), and compares every deterministic work count —
plus the packed plan's edge-universe size and the similarity-ordering
yield of :func:`repro.analysis.similarity.digit_similarity` over its
digit rows — against the committed snapshot
``benchmarks/results/PACKED_GUARD.json``.  A change that grows the edge
universe, weakens the greedy bucket ordering or re-sorts more vertices
than the snapshot fails CI even when parity still holds.

Usage::

    PYTHONPATH=src python benchmarks/packed_guard.py            # verify
    PYTHONPATH=src python benchmarks/packed_guard.py --update   # re-baseline
"""

from __future__ import annotations

import sys

import guard_common

from repro.analysis.similarity import digit_similarity

SNAPSHOT = guard_common.RESULTS_DIR / "PACKED_GUARD.json"


def _plan_counts(outcome) -> dict:
    """Packed-plan counts the generic report misses."""
    plan = outcome.source
    similarity = digit_similarity(plan.digit_rows, plan.digit_columns)
    return {
        "edge_universe": plan.num_edges,
        "digit_columns": similarity["digit_columns"],
        "bucket_digits_changed": similarity["bucket_digits_changed"],
    }


def collect() -> dict:
    """Packed-core work counts, parity-checked against delta and legacy."""
    return guard_common.collect("packed", cross=("delta", "graphs"),
                                extra=_plan_counts)


def main(argv=None) -> int:
    return guard_common.run_guard(
        argv, __doc__, "repro.packed-guard", SNAPSHOT, collect, "packed",
        "PYTHONPATH=src python benchmarks/packed_guard.py --update")


if __name__ == "__main__":
    sys.exit(main())
