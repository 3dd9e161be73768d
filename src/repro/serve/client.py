"""The blocking submit client: stream a campaign into a serve daemon.

The device side of checking-as-a-service.  A :class:`ServeClient` opens
one session (hello/welcome), pipelines signature batches up to a
window, honours ``busy`` backpressure by re-submitting the rejected
batch, and drains to collect the final report — whose ``summary`` is
byte-identical to checking the same multiset with ``repro run``.

:func:`submit_campaign` is the one-call form behind ``repro submit``:
it slices an existing :func:`repro.io` campaign dump into batches and
streams it, which is also how the CI smoke job and the load-generator
bench (``benchmarks/bench_serve.py``) drive the daemon.
"""

from __future__ import annotations

import socket
import time

from repro.harness.checking import CampaignResult
from repro.io import dump_program, signature_to_entry
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    expect_kind,
    read_frame_socket,
    write_frame_socket,
)


class ServeClient:
    """One streaming session against a running daemon.

    Args:
        host/port: the daemon's ingest address.
        program: the campaign's test program.
        register_width: signature register width (32/64).
        session: free-form label echoed in daemon telemetry.
        timeout_s: per-frame socket timeout.
        window: maximum unacknowledged batches in flight; beyond it,
            :meth:`submit` blocks reading acks (client-side pacing on
            top of the daemon's queue-depth backpressure).
    """

    def __init__(self, host: str, port: int, program, register_width: int,
                 session: str = "", timeout_s: float = 60.0,
                 window: int = 4):
        self.window = max(1, window)
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout_s)
        self._seq = 0
        #: seq -> submit message awaiting its ack (re-sent on busy)
        self._pending: dict = {}
        self.acks: list = []
        self.busy_replies = 0
        self.report: dict = None
        write_frame_socket(self._sock, {
            "kind": "hello", "v": PROTOCOL_VERSION,
            "program": dump_program(program),
            "register_width": register_width, "session": session})
        welcome = read_frame_socket(self._sock)
        if welcome.get("kind") == "error":
            raise ProtocolError(welcome.get("message") or "daemon refused")
        expect_kind(welcome, "welcome")
        self.session_id = welcome["session_id"]
        self.max_batch = welcome["max_batch"]
        self.queue_depth = welcome["queue_depth"]

    # -- streaming ---------------------------------------------------------------------

    def submit(self, entries: list, iterations: int = None,
               crashes: int = 0) -> int:
        """Send one batch; returns its sequence number.

        Keeps at most ``window`` batches unacknowledged, so a slow
        daemon exerts backpressure on the caller through this method
        blocking, not through unbounded client buffering.
        """
        if len(entries) > self.max_batch:
            raise ProtocolError("batch of %d entries exceeds the daemon's "
                                "max_batch %d" % (len(entries),
                                                  self.max_batch))
        self._seq += 1
        message = {"kind": "submit", "seq": self._seq,
                   "signatures": entries, "crashes": crashes}
        if iterations is not None:
            message["iterations"] = iterations
        self._pending[self._seq] = message
        write_frame_socket(self._sock, message)
        while len(self._pending) >= self.window:
            self._read_reply()
        return self._seq

    def _read_reply(self) -> dict:
        reply = read_frame_socket(self._sock)
        kind = expect_kind(reply, "ack", "busy", "error", "report")
        if kind == "error":
            raise ProtocolError(reply.get("message") or "daemon error")
        if kind == "report":
            # daemon-side drain overtook the stream: the session is over
            self.report = reply
            self._pending.clear()
            return reply
        seq = reply.get("seq")
        if kind == "busy":
            self.busy_replies += 1
            message = self._pending.get(seq)
            if message is None:
                raise ProtocolError("busy for unknown seq %r" % (seq,))
            time.sleep(max(0.0, float(reply.get("retry_after_s") or 0.0)))
            write_frame_socket(self._sock, message)
            return reply
        self._pending.pop(seq, None)
        self.acks.append(reply)
        return reply

    def drain(self) -> dict:
        """Flush pending acks, request drain, return the final report."""
        while self._pending and self.report is None:
            self._read_reply()
        if self.report is None:
            write_frame_socket(self._sock, {"kind": "drain",
                                            "seq": self._seq})
            while self.report is None:
                self._read_reply()
        return self.report

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def iter_batches(result: CampaignResult, batch: int):
    """Slice a campaign result's multiset into submit-sized entry lists."""
    entries = [signature_to_entry(signature, count)
               for signature, count in sorted(
                   result.signature_counts.items())]
    for start in range(0, len(entries), batch):
        yield entries[start:start + batch]


def submit_campaign(host: str, port: int, result: CampaignResult,
                    batch: int = 256, session: str = "",
                    window: int = 4, timeout_s: float = 60.0) -> dict:
    """Stream one campaign result through a daemon; returns the final
    report payload (the ``repro submit`` body)."""
    with ServeClient(host, port, result.program,
                     result.codec.register_width, session=session,
                     timeout_s=timeout_s, window=window) as client:
        batches = list(iter_batches(result, batch)) or [[]]
        for index, entries in enumerate(batches):
            crashes = result.crashes if index == len(batches) - 1 else 0
            client.submit(entries, crashes=crashes)
        return client.drain()
