"""Order statistics for the benchmark's timings.

Timings are reported as a median plus a tail percentile with the sample
count stated.  The tail is the workload's fixed level (so a faster
commit that fits more operations into a run reports the same
percentile), lowered when needed to the highest percentile that still
has :data:`MIN_BEYOND` samples beyond it.  Below ``MIN_BEYOND + 1``
samples no tail is reported.
"""

from __future__ import annotations

import math

#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def rank(n: int, level: float) -> int:
    """1-based nearest rank of the ``level`` percentile of ``n`` samples."""
    return min(n, max(1, math.ceil(level * n - 1e-9)))


def percentile(values, level: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``level`` of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[rank(len(ordered), level) - 1]


def tail_level(n: int):
    """The highest percentile with :data:`MIN_BEYOND` samples beyond it,
    or None for fewer than ``MIN_BEYOND + 1`` samples."""
    if n <= MIN_BEYOND:
        return None
    return (n - MIN_BEYOND) / n


def tail(values, level: float):
    """``(level used, value)`` of the tail at ``level``, lowered to what
    the sample count supports; None when no tail can be reported."""
    supported = tail_level(len(values))
    if supported is None:
        return None
    used = min(level, supported)
    return used, percentile(values, used)
