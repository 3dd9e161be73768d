"""Open-loop signature traffic for a ``repro serve`` daemon.

The generator is one thread multiplexing :data:`CONNECTIONS` sockets
with ``selectors``.  Each connection runs device sessions in turn:
hello, then batches, then drain, then report.  The daemon closes a
connection after its report, so every session dials a fresh socket.

Batch ``j`` of connection ``c`` is due at ``t0 + (CONNECTIONS * j + c)
/ rate`` whatever the daemon does, so a stall shows up as latency of the
batches behind it.  A batch's latency runs from its due time to its ack,
and its *lag* is how late the generator sent it.

Frames are encoded before the phase starts, so the generator's own
cost per batch is a socket write and the parsing of one reply.
"""

from __future__ import annotations

import json
import selectors
import socket
import struct
from dataclasses import dataclass, field

from tracing import clock

CONNECTIONS = 2
_PREFIX = struct.Struct(">I")


@dataclass
class Device:
    """One session's content: the hello frame and the batch frames."""

    name: str
    hello: bytes
    frames: list
    entries: list          #: entries per batch
    #: the campaign result whose multiset the session carries
    result: object = None


@dataclass
class BatchRecord:
    conn: int
    session: int
    seq: int
    due: float
    entries: int
    sent: float = None
    acked: float = None
    novel: int = 0
    repeats: int = 0

    @property
    def latency(self) -> float:
        return self.acked - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


@dataclass
class SessionRecord:
    conn: int
    device: int
    hello_sent: float
    welcomed: float = None
    session_id: int = None
    drain_sent: float = None
    reported: float = None
    report: dict = None


@dataclass
class PhaseResult:
    batches: list = field(default_factory=list)
    sessions: list = field(default_factory=list)
    refused: int = 0
    errors: list = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    def acked(self) -> list:
        return [b for b in self.batches if b.acked is not None]


def frame_messages(buffer: bytearray):
    """Pop every complete frame from ``buffer``; yields decoded dicts."""
    while len(buffer) >= _PREFIX.size:
        (length,) = _PREFIX.unpack_from(buffer)
        if len(buffer) < _PREFIX.size + length:
            return
        payload = bytes(buffer[_PREFIX.size:_PREFIX.size + length])
        del buffer[:_PREFIX.size + length]
        yield json.loads(payload)


def encode(message: dict) -> bytes:
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    return _PREFIX.pack(len(payload)) + payload


class _Conn:
    """One connection slot and the session it is running."""

    def __init__(self, index: int, port: int, plan: list, devices: list):
        self.index = index
        self.port = port
        self.plan = plan               # device indices, one per session
        self.devices = devices
        self.sock = None
        self.buffer = bytearray()
        self.session = None            # current SessionRecord
        self.next_frame = 0
        self.batches: dict = {}        # seq -> BatchRecord (this session)
        self.resend: list = []         # (time, frame) after a busy reply
        self.sent = 0                  # batches sent over all sessions
        self.done = False

    @property
    def frames(self) -> list:
        return self.devices[self.session.device].frames

    @property
    def streaming(self) -> bool:
        return (self.session is not None and self.session.session_id is not None
                and self.session.drain_sent is None)


class _Phase:
    def __init__(self, port, devices, batches, rate):
        self.result = PhaseResult()
        self.rate = rate
        plans = [[] for _ in range(CONNECTIONS)]
        planned = [0] * CONNECTIONS
        session = 0
        while sum(planned) < batches:
            conn = min(range(CONNECTIONS), key=planned.__getitem__)
            device = session % len(devices)
            plans[conn].append(device)
            planned[conn] += len(devices[device].frames)
            session += 1
        self.conns = [_Conn(i, port, plans[i], devices)
                      for i in range(CONNECTIONS)]
        # select(2) takes microsecond timeouts; epoll and poll round up
        # to whole milliseconds, which would make sends up to 1 ms late
        self.selector = selectors.SelectSelector()
        self.t0 = clock() + 0.01

    def due(self, conn) -> float:
        return self.t0 + (CONNECTIONS * conn.sent + conn.index) / self.rate

    def open_session(self, conn) -> None:
        if conn.sock is not None:
            self.selector.unregister(conn.sock)
            conn.sock.close()
            conn.sock = None
        if not conn.plan:
            conn.done = True
            return
        device = conn.plan.pop(0)
        conn.session = SessionRecord(conn.index, device, clock())
        conn.next_frame = 0
        conn.batches = {}
        conn.buffer.clear()
        conn.sock = socket.create_connection(("127.0.0.1", conn.port),
                                             timeout=30)
        self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        conn.sock.sendall(conn.devices[device].hello)
        self.result.sessions.append(conn.session)

    def wake(self, conn, limit: float) -> float:
        if conn.resend:
            limit = min(limit, conn.resend[0][0])
        if conn.streaming and conn.next_frame < len(conn.frames):
            limit = min(limit, self.due(conn))
        return limit

    def send_due(self, conn, now) -> None:
        while conn.resend and conn.resend[0][0] <= now:
            conn.sock.sendall(conn.resend.pop(0)[1])
        if not conn.streaming:
            return
        frames = conn.frames
        while conn.next_frame < len(frames) and self.due(conn) <= now:
            j = conn.next_frame
            record = BatchRecord(conn.index, conn.session.session_id, j + 1,
                                 self.due(conn),
                                 conn.devices[conn.session.device].entries[j])
            conn.sock.sendall(frames[j])
            record.sent = clock()
            conn.batches[j + 1] = record
            self.result.batches.append(record)
            conn.next_frame += 1
            conn.sent += 1
        if conn.next_frame == len(frames) and not conn.resend:
            conn.sock.sendall(encode({"kind": "drain", "seq": len(frames)}))
            conn.session.drain_sent = clock()

    def receive(self, conn) -> None:
        result = self.result
        try:
            chunk = conn.sock.recv(1 << 16)
        except OSError as exc:
            result.errors.append("recv failed: %s" % exc)
            conn.done = True
            return
        now = clock()
        if not chunk:
            if conn.session.reported is None:
                result.errors.append("daemon closed connection %d "
                                     "mid-session" % conn.index)
                conn.done = True
            return
        conn.buffer.extend(chunk)
        for message in frame_messages(conn.buffer):
            kind = message.get("kind")
            if kind == "welcome":
                conn.session.welcomed = now
                conn.session.session_id = message["session_id"]
            elif kind == "ack":
                record = conn.batches.get(message.get("seq"))
                if record is None:
                    result.errors.append("ack for unknown seq %r"
                                         % message.get("seq"))
                    continue
                record.acked = now
                record.novel = message.get("novel", 0)
                record.repeats = message.get("repeats", 0)
            elif kind == "busy":
                result.refused += 1
                frame = conn.frames[message.get("seq") - 1]
                conn.resend.append(
                    (now + float(message.get("retry_after_s") or 0.0), frame))
            elif kind == "report":
                conn.session.reported = now
                conn.session.report = message
            else:
                result.errors.append("unexpected %r frame: %s"
                                     % (kind, message.get("message", "")))
                conn.done = True

    def run(self, deadline: float) -> PhaseResult:
        result = self.result
        result.start = self.t0
        try:
            for conn in self.conns:
                self.open_session(conn)
            while not all(conn.done for conn in self.conns):
                now = clock()
                if now > deadline:
                    result.errors.append("phase did not finish in time")
                    break
                wake = deadline
                for conn in self.conns:
                    if not conn.done:
                        wake = self.wake(conn, wake)
                for key, _ in self.selector.select(max(0.0, wake - now)):
                    self.receive(key.data)
                now = clock()
                for conn in self.conns:
                    if conn.done:
                        continue
                    try:
                        self.send_due(conn, now)
                        if conn.session.reported is not None:
                            self.open_session(conn)
                    except OSError as exc:
                        result.errors.append("connection %d failed: %s"
                                             % (conn.index, exc))
                        conn.done = True
        finally:
            result.end = clock()
            self.selector.close()
            for conn in self.conns:
                if conn.sock is not None:
                    conn.sock.close()
        return result


def run_phase(port: int, devices: list, batches: int, rate: float,
              deadline_s: float = 60.0) -> PhaseResult:
    """Send at least ``batches`` batches at ``rate`` batches/s, as whole
    sessions cycling through ``devices``.

    A refused (busy) batch is re-sent after the daemon's
    ``retry_after_s`` and counted in :attr:`PhaseResult.refused`.
    """
    return _Phase(port, devices, batches, rate).run(clock() + deadline_s)
