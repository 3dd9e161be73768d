"""The serve wire protocol: length-prefixed JSON frames over a stream.

One frame is a 4-byte big-endian unsigned payload length followed by
exactly that many bytes of UTF-8 JSON — the same framing for the ingest
daemon (:mod:`repro.serve.daemon`), the submit client
(:mod:`repro.serve.client`) and the remote checking pool
(:mod:`repro.fleet.remote`).  The payload *content* reuses the repo's
existing hand-off vocabulary: signature batches are ``repro.io``
signature entries (``{"words", "count", ["ws"]}``), and worker telemetry
rides the versioned ``repro.worker-state`` wrapper unchanged.

Every payload is a JSON object with a ``kind`` field drawn from the
:data:`MESSAGE_KINDS` registry below; like the event plane's
:data:`~repro.obs.events.EVENT_KINDS`, the registry is the single source
of truth and generates ``docs/SERVE_PROTOCOL.md`` (diff-checked in CI).

Version negotiation: the first client frame is a ``hello`` carrying
``v``; the daemon answers ``welcome`` (echoing its own version) when it
can speak it and an ``error`` frame naming the supported version when it
cannot, so an old client fails with a message instead of a hang.

Truncation discipline: a short read raises
:class:`~repro.io.TruncatedPayloadError` naming the byte offset — dead
peers are diagnosed, never mistaken for malformed JSON.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from repro.errors import ReproError
from repro.io import TruncatedPayloadError, parse_json_payload

#: protocol schema tag and version (negotiated in hello/welcome)
SCHEMA = "repro.serve"
PROTOCOL_VERSION = 1

#: frame length prefix: 4-byte big-endian unsigned
_PREFIX = struct.Struct(">I")

#: refuse frames larger than this (a corrupt prefix would otherwise ask
#: the reader to allocate gigabytes)
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: direction tags for the kind registry
CLIENT, SERVER = "client->server", "server->client"
#: pool leg of the protocol: remote checking workers dial the pool
WORKER, POOL = "worker->pool", "pool->worker"


class ProtocolError(ReproError):
    """A frame or message violates the serve protocol."""


@dataclass(frozen=True)
class MessageKind:
    """One registered message type: direction, payload fields, docs."""

    name: str
    direction: str
    doc: str
    #: ``(field, description)`` pairs, in emission order
    fields: tuple


MESSAGE_KINDS: dict[str, MessageKind] = {}


def _kind(name: str, direction: str, doc: str, *fields) -> None:
    MESSAGE_KINDS[name] = MessageKind(name, direction, doc, tuple(fields))


_kind("hello", CLIENT,
      "Opens a session: version negotiation plus the campaign identity "
      "(the same program document and register width a `repro.io` dump "
      "carries), so the daemon can rebuild codec and graph builder "
      "before the first signature arrives.",
      ("v", "protocol version the client speaks (this build: %d)"
       % PROTOCOL_VERSION),
      ("program", "`repro.io` program document ({\"name\", \"listing\"})"),
      ("register_width", "signature register width (32/64; selects the "
       "default memory model, as in `repro check`)"),
      ("session", "free-form client label, echoed in telemetry"))
_kind("welcome", SERVER,
      "Accepts a hello: the session exists and may submit.",
      ("v", "protocol version the daemon speaks"),
      ("session_id", "daemon-assigned session index"),
      ("max_batch", "largest signature batch one submit may carry"),
      ("queue_depth", "bounded ingest-queue capacity backing the session"))
_kind("submit", CLIENT,
      "One signature batch: a list of `repro.io` signature entries "
      "({\"words\", \"count\"}).  Batches are checked in submission "
      "order; repeats of already-seen interleavings are O(1) dedup "
      "hits.",
      ("seq", "client-chosen batch sequence number, echoed in the ack"),
      ("signatures", "list of signature entries (io.py dump format)"),
      ("iterations", "device iterations this batch accounts for "
       "(defaults to the sum of entry counts)"),
      ("crashes", "crashed device iterations attributed to this batch"))
_kind("ack", SERVER,
      "A submitted batch was checked and folded into the session.",
      ("seq", "sequence number of the acknowledged submit"),
      ("novel", "signatures in the batch never seen before (checked)"),
      ("repeats", "dedup hits (validated in O(1) against the store)"),
      ("violations", "violating signatures discovered in this batch"),
      ("queued", "batches still waiting in the session's ingest queue"))
_kind("busy", SERVER,
      "Explicit backpressure: the session's bounded ingest queue is "
      "full and the batch was NOT accepted.  The client must re-submit "
      "the same batch after `retry_after_s`.",
      ("seq", "sequence number of the rejected submit"),
      ("retry_after_s", "suggested wait before re-submitting"),
      ("queue_depth", "the queue capacity that was exhausted"))
_kind("drain", CLIENT,
      "Ends the stream: check everything still queued, reply with the "
      "final report, then close.",
      ("seq", "last batch sequence number the client sent (sanity)"))
_kind("report", SERVER,
      "The session's final CheckReport digest — byte-identical to "
      "checking the same multiset through the batch `repro run` path.",
      ("session_id", "daemon-assigned session index"),
      ("summary", "timing-free `CheckReport.summary()` digest"),
      ("unique_signatures", "distinct interleavings this session saw"),
      ("signatures", "total signature occurrences ingested"),
      ("violations", "violating unique signatures"),
      ("dedup_hits", "batch entries answered from the dedup store"),
      ("drained", "true when the report was flushed by daemon drain "
       "rather than a client-requested close"))
_kind("error", SERVER,
      "The daemon refused a frame or the session crashed; the "
      "connection closes after this frame.",
      ("message", "human-readable reason"),
      ("v", "protocol version the daemon speaks (version mismatches)"))
_kind("join", WORKER,
      "A remote worker dials the pool and offers itself for tasks "
      "(pull-based dispatch: the pool hands work to whichever joined "
      "worker is idle — work stealing in effect).",
      ("v", "protocol version the worker speaks"),
      ("name", "free-form worker label, echoed in telemetry"))
_kind("task", POOL,
      "One unit of work for a joined worker: a fleet shard to execute "
      "(`repro.fleet` WorkerTask as a JSON document) or a campaign "
      "dump to check.",
      ("task_id", "pool-assigned id, echoed in heartbeats and result"),
      ("type", "\"shard\" (execute a WorkerTask) or \"check\" (check a "
       "campaign dump)"),
      ("task", "WorkerTask document (shard tasks)"),
      ("dump", "`repro.io` campaign dump text (check tasks)"),
      ("model", "memory-model name override for check tasks"),
      ("collect_metrics", "ship the worker's telemetry in the result"))
_kind("heartbeat", WORKER,
      "Liveness + progress while a task runs; each beat resets the "
      "pool's per-task deadline.  A worker silent past the timeout is "
      "declared dead: its task is re-queued and, with retries "
      "exhausted, recorded as the paper's bug-3 crash outcome.",
      ("task_id", "the running task"),
      ("progress", "fleet heartbeat payload (iterations_done, ...)"))
_kind("result", WORKER,
      "A task finished.  `state` is the versioned `repro.worker-state` "
      "wrapper (metrics + events + spans) the one-host fleet ships over "
      "its pipe, absorbed host-side unchanged.",
      ("task_id", "the finished task"),
      ("ok", "True when `payload` is valid output"),
      ("payload", "shard: `repro.io` campaign dump; check: verdict "
       "digest ({\"summary\", \"violations\", \"unique\"})"),
      ("error", "failure reason when not ok"),
      ("state", "`repro.worker-state` wrapper or null"))
_kind("bye", POOL,
      "The pool is closing; the worker should disconnect.",
      ("reason", "why (\"close\", \"drain\")"))

# -- frame io (blocking sockets / files) ----------------------------------------------


def encode_frame(message: dict) -> bytes:
    """Serialize one message to a length-prefixed frame."""
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError("frame payload of %d bytes exceeds the %d-byte "
                            "limit" % (len(payload), MAX_FRAME_BYTES))
    return _PREFIX.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse one frame payload, with typed truncation diagnostics."""
    return parse_json_payload(payload.decode("utf-8", errors="replace"),
                              what="frame payload")


def _read_exactly(read, n: int, what: str) -> bytes:
    """Drain ``read(k)`` until ``n`` bytes arrive; typed error on EOF."""
    chunks = []
    got = 0
    while got < n:
        chunk = read(n - got)
        if not chunk:
            raise TruncatedPayloadError(
                "%s truncated at byte %d of %d (peer closed mid-frame)"
                % (what, got, n), got)
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(read) -> dict:
    """Read one frame via a ``read(n) -> bytes`` callable.

    Returns the decoded message, or raises: ``EOFError`` on a clean
    end-of-stream *between* frames, :class:`~repro.io.
    TruncatedPayloadError` on a mid-frame cut, :class:`ProtocolError` on
    an oversized length prefix.
    """
    first = read(_PREFIX.size)
    if not first:
        raise EOFError("end of stream")
    if len(first) < _PREFIX.size:
        first += _read_exactly(read, _PREFIX.size - len(first),
                               "frame length prefix")
    (length,) = _PREFIX.unpack(first)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError("frame of %d bytes exceeds the %d-byte limit "
                            "(corrupt length prefix?)"
                            % (length, MAX_FRAME_BYTES))
    return decode_payload(_read_exactly(read, length, "frame payload"))


def write_frame(write, message: dict) -> None:
    """Write one frame via a ``write(bytes)`` callable."""
    write(encode_frame(message))


def read_frame_socket(sock) -> dict:
    """:func:`read_frame` over a connected ``socket.socket``."""
    return read_frame(sock.recv)


def write_frame_socket(sock, message: dict) -> None:
    """:func:`write_frame` over a connected ``socket.socket``."""
    sock.sendall(encode_frame(message))


# -- frame io (asyncio) ---------------------------------------------------------------


async def read_frame_async(reader) -> dict:
    """Read one frame from an ``asyncio.StreamReader``."""
    import asyncio

    try:
        first = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("end of stream") from None
        raise TruncatedPayloadError(
            "frame length prefix truncated at byte %d of %d"
            % (len(exc.partial), _PREFIX.size), len(exc.partial)) from None
    (length,) = _PREFIX.unpack(first)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError("frame of %d bytes exceeds the %d-byte limit "
                            "(corrupt length prefix?)"
                            % (length, MAX_FRAME_BYTES))
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedPayloadError(
            "frame payload truncated at byte %d of %d (peer closed "
            "mid-frame)" % (len(exc.partial), length),
            len(exc.partial)) from None
    return decode_payload(payload)


async def write_frame_async(writer, message: dict) -> None:
    """Write one frame to an ``asyncio.StreamWriter`` and drain."""
    writer.write(encode_frame(message))
    await writer.drain()


# -- message validation ---------------------------------------------------------------


def expect_kind(message: dict, *kinds: str) -> str:
    """Validate a decoded message's ``kind`` against the registry."""
    kind = message.get("kind")
    if kind not in MESSAGE_KINDS:
        raise ProtocolError("unknown message kind %r (registered: %s)"
                            % (kind, ", ".join(sorted(MESSAGE_KINDS))))
    if kinds and kind not in kinds:
        raise ProtocolError("expected %s frame, got %r"
                            % ("/".join(kinds), kind))
    return kind


def negotiate_hello(message: dict) -> dict:
    """Validate a client hello; raises :class:`ProtocolError` with the
    supported version on mismatch (the daemon ships it in an error
    frame, so old clients fail loudly)."""
    expect_kind(message, "hello")
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "client speaks serve protocol %r; this daemon speaks version "
            "%d" % (version, PROTOCOL_VERSION))
    program = message.get("program")
    if not isinstance(program, dict) or "listing" not in program:
        raise ProtocolError("hello must carry a repro.io program document")
    width = message.get("register_width")
    if width not in (32, 64):
        raise ProtocolError("hello register_width must be 32 or 64, got %r"
                            % (width,))
    return message


# -- the generated reference ----------------------------------------------------------


def protocol_markdown() -> str:
    """The ``docs/SERVE_PROTOCOL.md`` reference, generated from the
    registry (like the event and lint-rule references)."""
    lines = [
        "# Serve protocol reference",
        "",
        "Generated by `python -m repro serve --protocol-doc`; do not edit",
        "by hand (CI diff-checks this file against the registry).",
        "",
        "## Frame layout",
        "",
        "A frame is a **4-byte big-endian unsigned payload length**",
        "followed by exactly that many bytes of UTF-8 JSON (one object per",
        "frame, `kind` field required).  Frames larger than %d bytes are"
        % MAX_FRAME_BYTES,
        "refused.  A short read raises a typed truncation error naming the",
        "byte offset (`repro.io.TruncatedPayloadError`) — dead peers are",
        "diagnosed, never mistaken for malformed JSON.",
        "",
        "## Version negotiation",
        "",
        "The first client frame must be a `hello` carrying `v` (this build",
        "speaks version %d, schema `%s`).  The daemon replies `welcome` on"
        % (PROTOCOL_VERSION, SCHEMA),
        "a match and an `error` frame naming its version on a mismatch,",
        "then closes.",
        "",
        "## Backpressure",
        "",
        "Each session owns a bounded ingest queue (`queue_depth` in the",
        "welcome).  A `submit` that arrives while the queue is full is",
        "answered with `busy` and **dropped** — the client owns the batch",
        "and re-submits it after `retry_after_s`.  Accepted batches are",
        "acknowledged with `ack` in submission order.",
        "",
        "## Drain semantics",
        "",
        "A client `drain` (or a daemon-side SIGTERM) stops intake,",
        "finishes every queued batch, and flushes one final `report` per",
        "session whose `summary` is byte-identical to checking the same",
        "signature multiset through the batch `repro run` path.  On",
        "SIGTERM the daemon exits 0 only after every live session's",
        "report is flushed.",
        "",
    ]
    for direction, title in ((CLIENT, "Client to server"),
                             (SERVER, "Server to client"),
                             (WORKER, "Worker to pool"),
                             (POOL, "Pool to worker")):
        lines.append("## %s" % title)
        lines.append("")
        for kind in sorted(MESSAGE_KINDS.values(), key=lambda k: k.name):
            if kind.direction != direction:
                continue
            lines.append("### `%s`" % kind.name)
            lines.append("")
            lines.append(kind.doc)
            lines.append("")
            for field, doc in kind.fields:
                lines.append("* `%s` — %s" % (field, doc))
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"
