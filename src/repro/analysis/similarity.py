"""Similarity measures between executions (paper Section 4.1).

The paper measures the distance between two test executions as the
number of *differing reads-from relationships* — the loads whose source
store differs between the two runs.  This is the metric behind the
k-medoids limit study (Figure 6) and the intuition behind sorting
signatures: adjacent signatures have small rf distance.

:func:`digit_similarity` asks the follow-up question over a compiled
:class:`~repro.checker.packed.PackedPlan`'s digit rows: how many digit
transitions the ascending signature sort leaves between neighbours, and
how many a greedy nearest-neighbour order would leave.  The checkers
never use that order; the benches report it as a study.
"""

from __future__ import annotations

from typing import Sequence


def rf_distance(rf_a: dict, rf_b: dict) -> int:
    """Number of loads observing different sources in the two executions.

    Both maps must cover the same loads (executions of the same test).
    """
    if rf_a.keys() != rf_b.keys():
        raise ValueError("executions cover different load sets")
    return sum(1 for load, src in rf_a.items() if rf_b[load] != src)


def distance_matrix(rfs: Sequence[dict]):
    """Full pairwise rf-distance matrix as a numpy int32 array."""
    import numpy as np

    # Stable per-load source indexing lets numpy do the heavy comparison.
    if not rfs:
        return np.zeros((0, 0), dtype=np.int32)
    loads = sorted(rfs[0].keys())
    source_ids: dict = {}
    coded = np.empty((len(rfs), len(loads)), dtype=np.int32)
    for i, rf in enumerate(rfs):
        for j, load in enumerate(loads):
            src = rf[load]
            coded[i, j] = source_ids.setdefault(src, len(source_ids))
    n = len(rfs)
    out = np.zeros((n, n), dtype=np.int32)
    # Row blocks bound the broadcast to ~tens of MB for 1000 executions.
    block = max(1, 4_000_000 // max(1, n * len(loads)))
    for start in range(0, n, block):
        stop = min(n, start + block)
        diff = coded[start:stop, None, :] != coded[None, :, :]
        out[start:stop] = diff.sum(axis=2, dtype=np.int32)
    return out


#: above this many rows the greedy chain (quadratic in the number of
#: rows) is skipped and the chain keeps the sorted order
_GREEDY_CAP = 4096


def greedy_chain(rows: Sequence[Sequence[int]]) -> list:
    """Greedy similarity (bucket) order of equal-length digit rows.

    Each row's digits are one-hot packed into a single big integer —
    one bit lane per (column, digit) — so the number of agreeing digits
    between two rows is ``popcount(mask_a & mask_b)``.  Starting from
    row 0, the chain always visits next the unvisited row sharing the
    most digits with the current one, ties to the lowest index, so the
    order is deterministic.  Blocks larger than ``_GREEDY_CAP`` keep the
    sorted order.
    """
    n = len(rows)
    if not 1 < n <= _GREEDY_CAP or not rows[0]:
        return list(range(n))
    # lanes need only be disjoint, so each is as wide as its column's
    # largest digit
    lanes = []
    bit = 0
    for column in zip(*rows):
        lanes.append(bit)
        bit += max(column) + 1
    masks = []
    for row in rows:
        mask = 0
        for lane, digit in zip(lanes, row):
            mask |= 1 << (lane + digit)
        masks.append(mask)
    order = [0]
    remaining = list(range(1, n))
    cur = masks[0]
    while remaining:
        best_k = 0
        best_match = -1
        for k, i in enumerate(remaining):
            match = bin(cur & masks[i]).count("1")
            if match > best_match:
                best_match = match
                best_k = k
        nxt = remaining.pop(best_k)
        order.append(nxt)
        cur = masks[nxt]
    return order


def _digits_changed(rows: Sequence[Sequence[int]], order) -> int:
    """Digit transitions between consecutive rows of ``order``."""
    return sum(a != b
               for i, j in zip(order, order[1:])
               for a, b in zip(rows[i], rows[j]))


def digit_similarity(rows: Sequence[Sequence[int]],
                     digit_columns: int) -> dict:
    """Digit transitions of the sorted order versus the greedy chain.

    ``rows`` are a plan's digit rows in checked (ascending signature)
    order, ``digit_columns`` their width.  On the fig09 configs the chain
    cuts adjacent transitions 33-49% below the signature sort.
    """
    return {
        "signatures": len(rows),
        "digit_columns": digit_columns,
        "sorted_digits_changed": _digits_changed(rows, range(len(rows))),
        "bucket_digits_changed": _digits_changed(rows, greedy_chain(rows)),
    }
