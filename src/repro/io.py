"""Persistence: programs, signatures and campaign results as JSON.

In the paper's flow, signatures are produced on the device under
validation and shipped to a host machine for decoding and checking; the
amount of data transferred matters (Section 1).  This module provides
that boundary: a campaign's signature multiset (plus, optionally, the
observed coherence orders of the representatives) serializes to a JSON
document that a host-side process can load and check without re-running
anything.

Programs serialize through the textual assembler
(:mod:`repro.isa.assembler`), keeping dumps human-readable.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.errors import ReproError
from repro.harness.checking import CampaignResult
from repro.instrument.signature import Signature, SignatureCodec
from repro.isa.assembler import assemble, disassemble
from repro.isa.program import TestProgram

_FORMAT_VERSION = 1
#: the dump header's run counters (absent means 0)
_COUNTERS = ("iterations", "crashes", "skipped_iterations",
             "signature_asserts")


class FormatError(ReproError):
    """A dump file is malformed or from an incompatible version."""


class TruncatedPayloadError(FormatError):
    """A JSON payload ends mid-document (a short read, not a syntax error).

    The serve framing path (:mod:`repro.serve.protocol`) can deliver
    partial payloads when a peer dies mid-write; distinguishing "cut off
    at byte N" from "malformed JSON" turns a debugging session into one
    error message.  ``offset`` is the byte position where the document
    stopped making sense — for a clean truncation, the payload length.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def parse_json_payload(text: str, what: str = "payload") -> dict:
    """Parse one JSON document, typing truncation separately.

    Raises :class:`TruncatedPayloadError` (naming the byte offset) when
    the decoder ran off the end of the input — an unterminated string or
    an error at/after the last byte — and plain :class:`FormatError` for
    any other malformation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        # an error at/after the last non-space byte means the decoder ran
        # out of input; an unterminated string is reported at its opening
        # quote but likewise only happens when the closing quote never
        # arrives before EOF
        at_end = exc.pos >= len(text.rstrip())
        unterminated = exc.msg.startswith("Unterminated string")
        if at_end or unterminated:
            raise TruncatedPayloadError(
                "%s truncated at byte %d of %d (%s); the sender died "
                "mid-write or the read was short"
                % (what, exc.pos, len(text.encode("utf-8")), exc.msg),
                exc.pos) from None
        raise FormatError("%s is not valid JSON: %s" % (what, exc)) from None
    if not isinstance(doc, dict):
        raise FormatError("%s must be a JSON object, not %s"
                          % (what, type(doc).__name__))
    return doc


def dump_program(program: TestProgram) -> dict:
    """Serialize a test program (assembler text + metadata)."""
    return {"name": program.name, "listing": disassemble(program)}


def load_program(doc: dict) -> TestProgram:
    if not isinstance(doc, dict):
        raise FormatError("program document must be an object, not %s"
                          % type(doc).__name__)
    if "listing" not in doc:
        raise FormatError("program document missing 'listing'")
    listing, name = doc["listing"], doc.get("name", "")
    for key, value in (("listing", listing), ("name", name)):
        if not isinstance(value, str):
            raise FormatError("program document %r must be a string, not %s"
                              % (key, type(value).__name__))
    return assemble(listing, name=name)


def _signature_to_list(signature: Signature) -> list:
    return [list(words) for words in signature.words]


def _signature_from_list(data) -> Signature:
    return Signature(tuple(tuple(int(w) for w in words) for words in data))


def signature_to_entry(signature: Signature, count: int = 1) -> dict:
    """One ``{"words", "count"}`` signature entry (the dump/serve unit)."""
    return {"words": _signature_to_list(signature), "count": int(count)}


def signature_from_entry(entry: dict, default_count: int = 1) -> tuple:
    """Decode one signature entry; returns ``(signature, count)``.

    A missing ``count`` means ``default_count``; pass None to require it.
    """
    if not isinstance(entry, dict):
        raise FormatError("bad signature entry: expected an object, not %s"
                          % type(entry).__name__)
    if "words" not in entry:
        raise FormatError("bad signature entry: missing 'words'")
    if default_count is None and "count" not in entry:
        raise FormatError("bad signature entry: missing 'count'")
    try:
        signature = _signature_from_list(entry["words"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError("bad signature entry 'words': %s" % (exc,)) from None
    try:
        return signature, int(entry.get("count", default_count))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError("bad signature entry 'count': %s" % (exc,)) from None


def dump_campaign(result: CampaignResult, include_ws: bool = True,
                  meta: dict = None) -> str:
    """Serialize a campaign's signatures (and optional ws orders) to JSON.

    Args:
        result: a finished :class:`CampaignResult`.
        include_ws: also store each representative execution's observed
            coherence order, enabling host-side ``observed``-mode
            checking.  Without it the dump carries only what the paper's
            signature transfer carries.
        meta: optional free-form provenance (fleet workers stamp their
            shard's seed and seed-block assignment here).  Ignored by
            :func:`load_campaign`; surfaced by :func:`campaign_meta`.
    """
    signatures = []
    for signature, count in sorted(result.signature_counts.items()):
        entry = {"words": _signature_to_list(signature), "count": count}
        if include_ws:
            ws = result.representatives[signature].ws
            entry["ws"] = {str(addr): chain for addr, chain in ws.items()}
        signatures.append(entry)
    doc = {
        "format": _FORMAT_VERSION,
        "program": dump_program(result.program),
        "register_width": result.codec.register_width,
        "iterations": result.iterations,
        "crashes": result.crashes,
        "signatures": signatures,
    }
    if result.skipped_iterations:
        doc["skipped_iterations"] = result.skipped_iterations
    if result.signature_asserts:
        doc["signature_asserts"] = result.signature_asserts
    if meta:
        doc["meta"] = dict(meta)
    return json.dumps(doc, indent=1)


def campaign_meta(text: str) -> dict:
    """The free-form ``meta`` block of a campaign dump (``{}`` if absent)."""
    doc = parse_json_payload(text, what="campaign dump")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError("campaign 'meta' must be an object")
    return meta


def load_campaign(text: str) -> CampaignResult:
    """Reconstruct a host-side :class:`CampaignResult` from a JSON dump.

    The returned result carries signature counts and representative
    executions (with their observed ws when the dump includes it) whose
    ``rf`` is recovered by decoding each signature — Algorithm 1 on the
    host, as in the paper.  The document's structure is validated here;
    the decode is deferred to the first read of
    :attr:`CampaignResult.representatives`, so a static check decodes
    each signature once, in its own pipeline, which range-checks it.
    """
    doc = parse_json_payload(text, what="campaign dump")
    if doc.get("format") != _FORMAT_VERSION:
        raise FormatError("unsupported dump format %r" % doc.get("format"))
    for key in ("program", "signatures"):
        if key not in doc:
            raise FormatError("campaign dump missing %r" % key)
    if not isinstance(doc["signatures"], list):
        raise FormatError("campaign dump 'signatures' must be a list")
    counters = {}
    for key in _COUNTERS:
        value = doc.get(key, 0)
        if type(value) is not int or value < 0:
            raise FormatError("campaign dump %r must be a non-negative "
                              "integer, not %r" % (key, value))
        counters[key] = value
    program = load_program(doc["program"])
    codec = SignatureCodec(program, doc.get("register_width"))
    result = CampaignResult(program, codec, **counters)
    counts = Counter()
    representatives = []
    for entry in doc["signatures"]:
        signature, count = signature_from_entry(entry, default_count=None)
        counts[signature] = count
        representatives.append((signature, _ws_from_entry(entry)))
    result.signature_counts = counts
    result.defer_representatives(representatives)
    return result


def _ws_from_entry(entry: dict) -> dict:
    """An entry's observed coherence orders (``{}`` when not dumped)."""
    ws = entry.get("ws", {})
    if not isinstance(ws, dict):
        raise FormatError("signature entry 'ws' must be an object, not %s"
                          % type(ws).__name__)
    try:
        return {int(addr): list(map(int, chain))
                for addr, chain in ws.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError("bad signature entry 'ws': %s" % (exc,)) from None


def save_campaign(result: CampaignResult, path, include_ws: bool = True) -> None:
    """Write a campaign dump to ``path``."""
    with open(path, "w") as handle:
        handle.write(dump_campaign(result, include_ws=include_ws))


def read_campaign(path) -> CampaignResult:
    """Load a campaign dump from ``path``."""
    with open(path) as handle:
        return load_campaign(handle.read())
