"""Bench-regression watchdog: canonical snapshots, banded diffs, history.

The ``benchmarks/results/BENCH_*.json`` snapshots each grew their own
shape (per-config count tables, per-suite metric dumps, per-mutation
outcomes).  This module puts one canonical schema over all of them:
a snapshot *flattens* to dotted-key numeric leaves
(``configs.ARM-2-50-32.sorted_vertices`` → ``533``), and every leaf is
either a **count** — deterministic work (graphs, vertices, findings),
compared exactly — or a **timing** (``info_ms.*``, ``*_s``,
``elapsed``...), compared inside a relative tolerance band because wall
time is machine noise.

Three consumers:

* ``repro bench diff BASELINE CURRENT`` — tolerance-banded comparison
  of any two snapshot files; exit 1 on regressions.
* ``repro bench diff --check`` — the CI watchdog: re-runs the pinned
  quick configs (:data:`CHECK_CONFIGS` of ``BENCH_delta.json``, whose
  embedded ``iterations``/``seed`` make the counts bit-reproducible)
  and compares the fresh counts against the committed snapshot.
  Timings are reported but never fail the check — CI runners are too
  noisy for wall-clock gates (same policy as ``delta_guard.py``).
* ``repro bench record`` — appends a headline digest of a snapshot to
  ``benchmarks/results/BENCH_history.jsonl``, the per-PR trajectory of
  the repo's own performance counters.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.errors import ReproError

#: relative band for timing leaves; counts are always compared exactly
DEFAULT_TOLERANCE = 0.1

#: quick deterministic configs re-run by ``repro bench diff --check``
CHECK_CONFIGS = ("ARM-2-50-32", "x86-2-50-32")

#: the committed snapshot the watchdog re-runs against
CHECK_SNAPSHOT = "BENCH_delta.json"

#: packed-core snapshot; the watchdog re-runs it too when committed
PACKED_SNAPSHOT = "BENCH_packed.json"

#: poly frontier-closure snapshot; ditto
POLY_SNAPSHOT = "BENCH_poly.json"

#: key fragments marking a leaf as wall-clock derived
_TIMING_SUFFIXES = ("_ms", "_s", "_seconds")
_TIMING_WORDS = ("info_ms", "seconds", "elapsed", "time", "wall")


class BenchSchemaError(ReproError):
    """A benchmark snapshot cannot be loaded or compared."""


# -- canonicalization ----------------------------------------------------------------


def flatten_numeric(doc, prefix: str = "") -> dict:
    """All numeric leaves of a snapshot as ``dotted.key -> value``.

    Strings and booleans are dropped (names, schema tags, flags);
    lists index their elements so per-seed tables stay addressable.
    """
    leaves = {}

    def walk(node, path):
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            leaves[path] = node
        elif isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], "%s.%s" % (path, key) if path else str(key))
        elif isinstance(node, list):
            for index, item in enumerate(node):
                walk(item, "%s.%d" % (path, index) if path else str(index))

    walk(doc, prefix)
    return leaves


def is_timing_key(key: str) -> bool:
    """True when a dotted key measures wall time rather than work."""
    for part in key.split("."):
        lowered = part.lower()
        if lowered.endswith(_TIMING_SUFFIXES):
            return True
        if any(word in lowered for word in _TIMING_WORDS):
            return True
    return False


# -- comparison ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchDelta:
    """One compared leaf of a snapshot pair."""

    key: str
    #: ``"count"`` (exact) or ``"timing"`` (banded)
    kind: str
    baseline: float = None
    current: float = None
    #: ``ok`` / ``regression`` / ``improvement`` / ``added`` / ``removed``
    status: str = "ok"

    @property
    def ratio(self):
        """current / baseline (None when undefined)."""
        if not self.baseline or self.current is None:
            return None
        return self.current / self.baseline

    def to_json(self) -> dict:
        return {"key": self.key, "kind": self.kind,
                "baseline": self.baseline, "current": self.current,
                "status": self.status}


@dataclass
class BenchComparison:
    """Outcome of diffing two snapshots leaf by leaf."""

    tolerance: float
    deltas: list = field(default_factory=list)
    #: timing leaves never fail the comparison when set (--check mode)
    counts_only: bool = False

    def _with_status(self, *statuses):
        return [d for d in self.deltas if d.status in statuses]

    @property
    def regressions(self) -> list:
        out = self._with_status("regression")
        if self.counts_only:
            out = [d for d in out if d.kind == "count"]
        return out

    @property
    def improvements(self) -> list:
        return self._with_status("improvement")

    @property
    def shape_changes(self) -> list:
        return self._with_status("added", "removed")

    @property
    def failed(self) -> bool:
        """True when the current snapshot regressed (or changed shape)."""
        return bool(self.regressions) or bool(self.shape_changes)

    def to_json(self) -> dict:
        return {"tolerance": self.tolerance,
                "counts_only": self.counts_only,
                "compared": len(self.deltas),
                "failed": self.failed,
                "deltas": [d.to_json() for d in self.deltas
                           if d.status != "ok"]}

    def render(self) -> str:
        from repro.harness.reporting import format_table

        flagged = [d for d in self.deltas if d.status != "ok"]
        if not flagged:
            return ("bench diff ok: %d leaves compared, none outside the "
                    "%.0f%% timing band"
                    % (len(self.deltas), 100 * self.tolerance))
        rows = []
        for delta in sorted(flagged, key=lambda d: (d.status, d.key)):
            ratio = delta.ratio
            rows.append([delta.key, delta.kind,
                         "-" if delta.baseline is None else
                         "%g" % delta.baseline,
                         "-" if delta.current is None else
                         "%g" % delta.current,
                         "-" if ratio is None else "%.2fx" % ratio,
                         delta.status.upper()
                         if delta.status == "regression"
                         else delta.status])
        return format_table(
            ["key", "kind", "baseline", "current", "ratio", "status"],
            rows,
            title="bench diff: %d/%d leaves flagged (timing band %.0f%%)"
            % (len(flagged), len(self.deltas), 100 * self.tolerance))


def diff_snapshots(baseline: dict, current: dict,
                   tolerance: float = DEFAULT_TOLERANCE,
                   counts_only: bool = False) -> BenchComparison:
    """Compare two snapshots leaf by leaf.

    Count leaves must match exactly; timing leaves may drift within
    ``tolerance`` (relative).  Leaves present on only one side are
    shape changes and fail the comparison — a renamed counter would
    otherwise silently leave the watchdog blind.
    """
    base = flatten_numeric(baseline)
    cur = flatten_numeric(current)
    comparison = BenchComparison(tolerance, counts_only=counts_only)
    for key in sorted(set(base) | set(cur)):
        kind = "timing" if is_timing_key(key) else "count"
        if key not in cur:
            comparison.deltas.append(
                BenchDelta(key, kind, baseline=base[key], status="removed"))
            continue
        if key not in base:
            comparison.deltas.append(
                BenchDelta(key, kind, current=cur[key], status="added"))
            continue
        want, got = base[key], cur[key]
        status = "ok"
        if kind == "count":
            if got != want:
                # fewer graphs checked is NOT an improvement: any exact
                # count mismatch means the workload changed
                status = "regression"
        else:
            limit = tolerance * max(abs(want), 1e-12)
            if abs(got - want) > limit:
                status = "regression" if got > want else "improvement"
        comparison.deltas.append(
            BenchDelta(key, kind, baseline=want, current=got, status=status))
    return comparison


# -- snapshot io ---------------------------------------------------------------------


def load_snapshot(path) -> dict:
    """Load one snapshot JSON, wrapping failures in a CLI-safe error."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise BenchSchemaError("%s is not valid JSON: %s"
                               % (path, exc)) from None
    if not isinstance(doc, dict):
        raise BenchSchemaError("%s: snapshot must be a JSON object" % path)
    return doc


# -- the CI watchdog -----------------------------------------------------------------


def collect_check_counts(config_names, iterations: int, seed: int,
                         pipeline: str = "delta") -> dict:
    """Deterministic checking-pipeline counts for the watchdog configs.

    Mirrors ``benchmarks/bench_fig09`` / ``delta_guard``: seeded pure
    Python end to end, so every leaf is bit-reproducible.  The
    ``packed`` pipeline adds its plan-level counts (edge-universe size)
    and the similarity-ordering yield of
    :func:`repro.analysis.similarity.digit_similarity`, matching
    ``bench_packed``; the
    ``poly`` pipeline adds its closure-effort counts (rule applications
    and dynamic ordering facts), matching ``bench_poly``.
    """
    # local imports: repro.obs must stay importable without the harness
    from repro.harness import Campaign, check_campaign_result
    from repro.testgen import paper_config

    counts = {}
    for name in config_names:
        campaign = Campaign(config=paper_config(name), seed=seed)
        result = campaign.run(iterations)
        outcome = check_campaign_result(result, campaign.model,
                                        pipeline=pipeline)
        report = outcome.collective
        counts[name] = {
            "graphs": report.num_graphs,
            "violations": len(report.violations),
            "sorted_vertices": report.sorted_vertices,
            "baseline_sorted_vertices": outcome.baseline.sorted_vertices,
            "digits_changed": report.digits_changed,
            "edges_added": report.edges_added,
            "edges_removed": report.edges_removed,
        }
        if pipeline == "packed":
            from repro.analysis.similarity import digit_similarity

            plan = outcome.source
            similarity = digit_similarity(plan.digit_rows,
                                          plan.digit_columns)
            counts[name].update(
                edge_universe=plan.num_edges,
                digit_columns=similarity["digit_columns"],
                sorted_digits_changed=similarity["sorted_digits_changed"],
                bucket_digits_changed=similarity["bucket_digits_changed"])
        if pipeline == "poly":
            source = outcome.source
            counts[name].update(
                static_pairs=len(source.verifier.static_pairs),
                closure_unions=source.stats["closure_unions"],
                dynamic_pairs=source.stats["dynamic_pairs"])
    return counts


def check_against_committed(results_dir,
                            tolerance: float = DEFAULT_TOLERANCE,
                            configs=CHECK_CONFIGS,
                            snapshot: str = CHECK_SNAPSHOT,
                            pipeline: str = "delta") -> BenchComparison:
    """Re-run the pinned quick configs; diff against the committed
    snapshot (counts gate, timings informational)."""
    import os

    snapshot_path = os.path.join(results_dir, snapshot)
    committed = load_snapshot(snapshot_path)
    iterations = committed.get("iterations")
    seed = committed.get("seed")
    if not isinstance(iterations, int) or not isinstance(seed, int):
        raise BenchSchemaError(
            "%s lacks the embedded iterations/seed the watchdog re-runs "
            "with" % snapshot_path)
    all_configs = committed.get("configs")
    if not isinstance(all_configs, dict):
        raise BenchSchemaError("%s has no 'configs' table" % snapshot_path)
    missing = [name for name in configs if name not in all_configs]
    if missing:
        raise BenchSchemaError("%s lacks watchdog configs %s"
                               % (snapshot_path, ", ".join(missing)))
    baseline = {name: {key: value
                       for key, value in all_configs[name].items()
                       if key != "info_ms"}
                for name in configs}
    fresh = collect_check_counts(configs, iterations, seed,
                                 pipeline=pipeline)
    return diff_snapshots({"configs": baseline}, {"configs": fresh},
                          tolerance=tolerance, counts_only=True)


# -- trajectory history --------------------------------------------------------------


def headline(snapshot: dict) -> dict:
    """A compact digest of one snapshot: leaf totals and a shape hash."""
    leaves = flatten_numeric(snapshot)
    counts = {k: v for k, v in leaves.items() if not is_timing_key(k)}
    blob = json.dumps(counts, sort_keys=True).encode()
    return {
        "leaves": len(leaves),
        "count_leaves": len(counts),
        "count_sum": sum(counts.values()),
        "counts_sha256_16": hashlib.sha256(blob).hexdigest()[:16],
    }


def history_entry(name: str, snapshot: dict, note: str = "") -> dict:
    """One ``BENCH_history.jsonl`` record for a snapshot."""
    entry = {"ts": time.time(), "snapshot": name,
             "digest": headline(snapshot)}
    if note:
        entry["note"] = note
    return entry


def append_history(path, entry: dict) -> None:
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def read_history(path) -> list:
    entries = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise BenchSchemaError("%s:%d: not valid JSON: %s"
                                       % (path, lineno, exc)) from None
    return entries
