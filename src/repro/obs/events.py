"""Structured event plane: typed, timestamped, mergeable JSONL events.

Where metrics answer "how much" and spans answer "how long", events
answer *what happened, in what order*: campaign and shard lifecycle,
lint gate decisions, checker verdict batches, mutation detections,
heartbeats.  Every event is an instance of a **registered kind** — an
entry in :data:`EVENT_KINDS` naming its payload fields — so the stream
is a stable machine interface, not a bag of ad-hoc dicts.  The kind
registry also generates ``docs/EVENTS.md`` (like the lint rule
reference), and CI diff-checks it.

Two design rules keep event logs useful across process boundaries:

* **Scopes.**  Every kind is either ``run``-scoped (a pure function of
  the campaign: seed blocks executed, gate decisions, verdict batches)
  or ``host``-scoped (orchestration facts: shard launches, retries,
  heartbeats, merge summaries).  A serial run and a sharded ``--jobs N``
  run of the same campaign produce the *same multiset* of run-scoped
  payloads (:meth:`EventLog.multiset`), which is tested the same way the
  fleet's signature-multiset invariance is.
* **Merge like metrics.**  An :class:`EventLog` is append-only and
  multiset-merges through ``export_state``/``absorb_state`` exactly like
  :class:`~repro.obs.metrics.MetricsRegistry` — fleet workers ship their
  logs home inside the hand-off state and the host absorbs them, so the
  host log covers device-side execution too.

Clock discipline (see the module docstrings of :mod:`repro.obs.span`):
event records carry **wall-clock** timestamps (``time.time()``), which
order and date them across processes; durations are never derived from
them — anything measured lives in spans/histograms, which use the
monotonic ``time.perf_counter()``.

Serialization is JSONL with one self-describing record per line
(``{"v": 1, "seq": ..., "ts": ..., "kind": ..., "scope": ..., "data":
{...}}``) so shard logs can be concatenated with ``cat`` and still
parse.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from dataclasses import dataclass

from repro.errors import ReproError

#: event-record schema identifier; bump the version on breaking changes
SCHEMA = "repro.events"
SCHEMA_VERSION = 1

#: event scopes (see module docstring)
RUN, HOST = "run", "host"


class EventSchemaError(ReproError):
    """An event record or event log does not conform to the schema."""


@dataclass(frozen=True)
class EventKind:
    """One registered event type: its scope, payload fields and docs."""

    name: str
    scope: str
    doc: str
    #: ``(field, description)`` pairs, in emission order
    fields: tuple


EVENT_KINDS: dict[str, EventKind] = {}


def _kind(name: str, scope: str, doc: str, *fields) -> None:
    EVENT_KINDS[name] = EventKind(name, scope, doc, tuple(fields))


# -- run scope: deterministic per campaign, identical serial vs sharded --------------

_kind("campaign.plan", RUN,
      "A campaign's iteration plan was fixed (post lint gate).",
      ("iterations", "total iterations that will execute"),
      ("blocks", "number of deterministic seed blocks in the plan"))
_kind("block.done", RUN,
      "One deterministic seed block finished executing.",
      ("block", "seed-block index (derives the block's RNG seed)"),
      ("iterations", "iterations executed in this block"),
      ("crashes", "crashed iterations within this block"),
      ("signature_asserts",
       "iterations whose instrumented assertion tail fired"))
_kind("campaign.result", RUN,
      "A campaign's signature collection completed (merged, if sharded).",
      ("iterations", "total iterations (including crashed/skipped ones)"),
      ("unique_signatures", "distinct interleaving signatures observed"),
      ("crashes", "crashed iterations"),
      ("skipped_iterations", "iterations the lint gate statically skipped"),
      ("signature_asserts", "assertion-tail detections"))
_kind("lint.gate", RUN,
      "The static-lint gate decided a campaign's fate pre-dispatch.",
      ("policy", "gate policy in force (skip/fail)"),
      ("run_iterations", "iterations allowed to run"),
      ("skipped_iterations", "iterations statically proven redundant"),
      ("reason", "human-readable gate reason (empty when nothing skipped)"))
_kind("check.batch", RUN,
      "A checker finished one batch of unique executions.",
      ("checker", "which checker ran (collective/baseline)"),
      ("pipeline", "checking pipeline (graphs/delta/packed/poly)"),
      ("graphs", "unique executions checked"),
      ("violations", "memory-consistency violations found"),
      ("complete", "graphs re-sorted from scratch"),
      ("no_resort", "graphs validated without re-sorting"),
      ("incremental", "graphs re-sorted over a bounded window"),
      ("sorted_vertices", "total vertices fed to Kahn's algorithm"))
_kind("checker.delta.plan", RUN,
      "A delta source was built over a sorted signature sequence.",
      ("signatures", "unique signatures the delta stream will cover"))
_kind("checker.packed.plan", RUN,
      "A packed plan was compiled over a sorted signature block.",
      ("signatures", "unique signatures the plan covers"),
      ("edge_universe", "distinct constraint-edge pairs any execution "
                        "can contribute"),
      ("digit_columns", "multi-candidate load slots (signature digits)"))
_kind("checker.poly.plan", RUN,
      "A poly frontier-closure source was built over a signature block.",
      ("signatures", "unique signatures the closure will cover"),
      ("loads", "multi-candidate load slots (decoded rf entries)"),
      ("static_pairs", "statically-known ordering facts (ppo + ws chains)"))

# -- host scope: orchestration facts; absent or different in a serial run ------------

_kind("fleet.plan", HOST,
      "A campaign's seed blocks were dealt onto worker shards.",
      ("shards", "worker shard count"),
      ("jobs", "maximum concurrently running workers"),
      ("iterations", "total iterations across all shards"))
_kind("shard.launch", HOST,
      "A worker process was launched for a shard attempt.",
      ("shard", "shard index"),
      ("attempt", "1-based attempt number (retries increment it)"),
      ("iterations", "iterations assigned to the shard"))
_kind("shard.retry", HOST,
      "A shard's worker died and is being relaunched.",
      ("shard", "shard index"),
      ("attempt", "1-based attempt number about to start"))
_kind("shard.done", HOST,
      "A shard handed off its signature multiset.",
      ("shard", "shard index"),
      ("attempts", "attempts it took"),
      ("iterations", "iterations the shard ran"),
      ("elapsed_s", "shard wall time under supervision (seconds)"))
_kind("shard.crash", HOST,
      "A shard exhausted its retries; recorded as a crash outcome.",
      ("shard", "shard index"),
      ("attempts", "attempts made"),
      ("error", "last failure reason"))
_kind("fleet.heartbeat", HOST,
      "A live progress report from a running worker.",
      ("shard", "shard index"),
      ("iterations_done", "iterations the shard has finished"),
      ("iterations_total", "iterations assigned to the shard"),
      ("unique_signatures", "distinct signatures the shard has seen"),
      ("crashes", "crashed iterations so far"))
_kind("fleet.merge", HOST,
      "Shard hand-offs were merged into one campaign result.",
      ("shards", "shards that handed off successfully"),
      ("crashed_shards", "shards recorded as crash outcomes"),
      ("iterations", "merged iteration total"),
      ("unique_signatures", "merged distinct signature count"))
_kind("mutate.seed", HOST,
      "One seeded detection campaign of a mutation finished.",
      ("mutation", "registered mutation name"),
      ("seed", "campaign seed"),
      ("detected", "whether any channel fired"),
      ("channel", "first channel that fired (empty if none)"),
      ("executions_to_detection",
       "executions until detection (null when undetected)"))
_kind("serve.session.open", HOST,
      "A streaming client completed its hello and owns a session.",
      ("session", "daemon-assigned session index"),
      ("label", "free-form client label from the hello"),
      ("campaign", "dedup campaign key (program + register width digest)"))
_kind("serve.session.close", HOST,
      "A session drained: its final report was flushed.",
      ("session", "session index"),
      ("signatures", "total signature occurrences ingested"),
      ("unique", "distinct signatures the session saw"),
      ("violations", "violating unique signatures in the final report"),
      ("drained", "True when flushed by daemon drain (SIGTERM), False "
       "for a client-requested close"))
_kind("serve.session.error", HOST,
      "A session crashed mid-stream and was torn down in isolation "
      "(the daemon and every other session keep running).",
      ("session", "session index"),
      ("error", "failure reason"))
_kind("serve.batch", HOST,
      "One submitted signature batch was checked and acknowledged.",
      ("session", "session index"),
      ("seq", "client-chosen batch sequence number"),
      ("novel", "signatures never seen before (checked live)"),
      ("repeats", "dedup hits answered in O(1)"),
      ("violations", "violating signatures present in the batch"))
_kind("serve.busy", HOST,
      "A submit was rejected with explicit backpressure (queue full).",
      ("session", "session index"),
      ("seq", "rejected batch sequence number"),
      ("queue_depth", "the exhausted ingest-queue capacity"))
_kind("serve.drain", HOST,
      "The daemon began draining: intake stopped, queued batches "
      "finish, every live session's report flushes before exit.",
      ("sessions", "live sessions at drain start"),
      ("reason", "what triggered it (\"sigterm\", \"close\")"))
_kind("serve.dedup", HOST,
      "A snapshot of the cross-client dedup store (emitted at drain "
      "and with each flushed session report).",
      ("hits", "lookups answered from the store, daemon-lifetime"),
      ("misses", "lookups that required a live check"),
      ("unique", "distinct (campaign, signature) records stored"),
      ("campaigns", "distinct campaign keys seen"))
_kind("pool.worker.join", HOST,
      "A remote worker dialed the TCP pool and joined.",
      ("worker", "worker label (or assigned name)"),
      ("address", "remote host:port"))
_kind("pool.worker.dead", HOST,
      "A remote worker went silent past the heartbeat timeout or "
      "dropped its connection; its task is re-queued (bug-3 crash "
      "outcome once retries are exhausted).",
      ("worker", "worker label"),
      ("task", "task id it owned"),
      ("error", "what the pool observed"))
_kind("pool.task", HOST,
      "A pool task finished on a remote worker.",
      ("task", "task id"),
      ("worker", "worker label"),
      ("type", "task type (shard/check)"),
      ("ok", "whether the worker returned a valid result"),
      ("elapsed_s", "dispatch-to-result wall time (seconds)"))
_kind("mutate.campaign", HOST,
      "A mutation's full sensitivity campaign finished.",
      ("mutation", "registered mutation name"),
      ("detected", "detected in every seeded campaign"),
      ("detection_rate", "fraction of seeds that detected"),
      ("channels", "distinct channels that fired, sorted"))
_kind("feasible.crosscheck", HOST,
      "The static feasibility oracle cross-checked one campaign's "
      "observed signatures against the constraint-graph checker.",
      ("program", "test program name"),
      ("model", "memory model the feasible set was enumerated under"),
      ("signatures", "observed unique signatures classified"),
      ("out_of_set", "observed signatures outside the feasible set"),
      ("checker_false_alarms",
       "feasible signatures the checker flagged (checker bug)"),
      ("agreement", "True when no signature produced a disagreement"))
_kind("poly.crosscheck", HOST,
      "The poly frontier-closure oracle cross-checked one campaign's "
      "observed signatures against a graph-family check outcome.",
      ("program", "test program name"),
      ("model", "memory model the closure ran under"),
      ("signatures", "observed unique signatures classified"),
      ("poly_violations", "signatures the frontier closure flags"),
      ("disagreements", "signatures where the algorithm families differ"),
      ("agreement", "True when no signature produced a disagreement"))


class Event:
    """One emitted event: a registered kind plus its payload."""

    __slots__ = ("seq", "ts", "kind", "scope", "data")

    def __init__(self, seq: int, ts: float, kind: str, scope: str, data: dict):
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.scope = scope
        self.data = data

    def to_dict(self) -> dict:
        return {"v": SCHEMA_VERSION, "seq": self.seq, "ts": self.ts,
                "kind": self.kind, "scope": self.scope, "data": self.data}

    def __repr__(self):
        return "Event(#%d %s %s %r)" % (self.seq, self.scope, self.kind,
                                        self.data)


def event_from_dict(doc: dict) -> Event:
    """Parse one serialized event record, validating the schema."""
    if not isinstance(doc, dict):
        raise EventSchemaError("event record must be a JSON object")
    version = doc.get("v")
    if version != SCHEMA_VERSION:
        raise EventSchemaError(
            "unsupported event schema version %r (this build reads "
            "version %d); regenerate the log with a matching repro"
            % (version, SCHEMA_VERSION))
    for field, kinds in (("seq", int), ("ts", (int, float)),
                         ("kind", str), ("scope", str)):
        if not isinstance(doc.get(field), kinds) or isinstance(
                doc.get(field), bool):
            raise EventSchemaError("event record needs a %r field" % field)
    data = doc.get("data")
    if not isinstance(data, dict):
        raise EventSchemaError("event 'data' must be an object")
    return Event(doc["seq"], doc["ts"], doc["kind"], doc["scope"], data)


class EventLog:
    """Append-only, thread-safe event sink with multiset-merge semantics."""

    def __init__(self):
        self._events: list[Event] = []
        self._lock = threading.Lock()

    def emit(self, kind: str, **data) -> Event:
        """Record one event of a registered kind.

        Unknown kinds raise ``ValueError``: the bus is typed, and a typo
        here would silently vanish from every consumer keyed on kind.
        """
        registered = EVENT_KINDS.get(kind)
        if registered is None:
            raise ValueError("unregistered event kind %r (see EVENT_KINDS)"
                             % (kind,))
        with self._lock:
            event = Event(len(self._events), time.time(), kind,
                          registered.scope, data)
            self._events.append(event)
        return event

    def events(self) -> list[Event]:
        with self._lock:
            return list(self._events)

    def __len__(self):
        return len(self._events)

    def __iter__(self):
        return iter(self.events())

    def counts(self) -> dict:
        """Event totals by kind (sorted), for summaries and reports."""
        totals = Counter(e.kind for e in self.events())
        return dict(sorted(totals.items()))

    def multiset(self, scope: str = RUN) -> Counter:
        """The multiset of ``(kind, canonical payload)`` pairs in ``scope``.

        Timestamps and sequence numbers are excluded, so two logs of the
        same campaign — serial or sharded-and-merged — compare equal.
        """
        return Counter(
            (e.kind, json.dumps(e.data, sort_keys=True))
            for e in self.events() if scope is None or e.scope == scope)

    # -- cross-process merging ---------------------------------------------------

    def export_state(self) -> dict:
        """Mergeable full state, shaped like the metrics registry's."""
        return {"schema": SCHEMA, "version": SCHEMA_VERSION,
                "events": [e.to_dict() for e in self.events()]}

    def absorb_state(self, state: dict) -> None:
        """Append a log exported elsewhere, preserving original wall
        timestamps but re-sequencing into this log's append order."""
        if not isinstance(state, dict) or state.get("schema") != SCHEMA:
            raise EventSchemaError("not an exported event-log state")
        if state.get("version") != SCHEMA_VERSION:
            raise EventSchemaError(
                "unsupported event-log version %r (want %d)"
                % (state.get("version"), SCHEMA_VERSION))
        parsed = [event_from_dict(doc) for doc in state.get("events", ())]
        with self._lock:
            base = len(self._events)
            for offset, event in enumerate(parsed):
                self._events.append(Event(base + offset, event.ts, event.kind,
                                          event.scope, event.data))

    # -- serialization -----------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n"
                       for e in self.events())

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())


def read_events(path) -> list[Event]:
    """Load a JSONL event log, validating every record."""
    events = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EventSchemaError(
                    "%s:%d: not valid JSON: %s" % (path, lineno, exc)) from None
            try:
                events.append(event_from_dict(doc))
            except EventSchemaError as exc:
                raise EventSchemaError("%s:%d: %s" % (path, lineno, exc)) \
                    from None
    return events


# -- disabled-mode no-op -------------------------------------------------------------


class NullEventLog:
    """Accepts emits and records nothing; the disabled-obs sink."""

    def emit(self, kind: str, **data) -> None:
        return None

    def events(self) -> list:
        return []

    def __len__(self):
        return 0

    def __iter__(self):
        return iter(())

    def counts(self) -> dict:
        return {}

    def multiset(self, scope: str = RUN) -> Counter:
        return Counter()

    def export_state(self) -> dict:
        return {"schema": SCHEMA, "version": SCHEMA_VERSION, "events": []}

    def absorb_state(self, state: dict) -> None:
        pass

    def to_jsonl(self) -> str:
        return ""

    def write_jsonl(self, path) -> None:
        with open(path, "w"):
            pass


# -- human rendering and the generated reference -------------------------------------


def render_events(events: list) -> str:
    """``repro stats`` view of an event log: per-kind totals and extent."""
    from repro.harness.reporting import format_table

    if not events:
        return "(empty event log)"
    base = min(e.ts for e in events)
    first: dict[str, float] = {}
    last: dict[str, float] = {}
    totals: Counter = Counter()
    scopes: dict[str, str] = {}
    for event in events:
        totals[event.kind] += 1
        scopes[event.kind] = event.scope
        first.setdefault(event.kind, event.ts)
        last[event.kind] = event.ts
    rows = [[kind, scopes[kind], totals[kind],
             "%.3f" % (first[kind] - base), "%.3f" % (last[kind] - base)]
            for kind in sorted(totals)]
    table = format_table(["event", "scope", "count", "first +s", "last +s"],
                         rows, title="events (%d total, %.3fs span)"
                         % (len(events), max(e.ts for e in events) - base))
    return table


def events_table() -> str:
    """Terminal reference of every registered event kind."""
    from repro.harness.reporting import format_table

    rows = [[k.name, k.scope, ", ".join(f for f, _ in k.fields)]
            for k in sorted(EVENT_KINDS.values(), key=lambda k: (k.scope, k.name))]
    return format_table(["event", "scope", "payload fields"], rows,
                        title="event kinds (%d registered, schema %s v%d)"
                        % (len(rows), SCHEMA, SCHEMA_VERSION))


def events_markdown() -> str:
    """The ``docs/EVENTS.md`` reference, generated from the registry."""
    lines = [
        "# Event schema reference",
        "",
        "Generated by `python -m repro events --markdown`; do not edit by",
        "hand (CI diff-checks this file against the registry).",
        "",
        "Every record in a `repro` event log (`--events-out`, worker",
        "hand-off state) is one JSON object per line:",
        "",
        "```json",
        '{"v": %d, "seq": 0, "ts": 1700000000.0, "kind": "campaign.plan",'
        % SCHEMA_VERSION,
        ' "scope": "run", "data": {"iterations": 1000, "blocks": 1}}',
        "```",
        "",
        "* `v` — event schema version (this reference documents version"
        " %d)." % SCHEMA_VERSION,
        "* `seq` — append order within the emitting log; re-assigned on",
        "  merge.",
        "* `ts` — wall-clock emission time (`time.time()`), for ordering",
        "  and dating only — durations come from spans, never from `ts`",
        "  arithmetic.",
        "* `kind` / `scope` / `data` — one of the registered kinds below.",
        "",
        "`run`-scoped events are a pure function of the campaign: a serial",
        "run and a sharded `--jobs N` run emit the same multiset of",
        "payloads.  `host`-scoped events describe orchestration on the",
        "supervising host and legitimately differ between the two.",
        "",
    ]
    for scope, title in ((RUN, "`run` scope"), (HOST, "`host` scope")):
        lines.append("## %s" % title)
        lines.append("")
        for kind in sorted(EVENT_KINDS.values(), key=lambda k: k.name):
            if kind.scope != scope:
                continue
            lines.append("### `%s`" % kind.name)
            lines.append("")
            lines.append(kind.doc)
            lines.append("")
            for field, doc in kind.fields:
                lines.append("* `%s` — %s" % (field, doc))
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"
