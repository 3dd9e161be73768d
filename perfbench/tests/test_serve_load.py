"""Open-loop timing: latency runs from each batch's due time, and the
generator's lag is how late it sent the batch."""

import socket
import threading
import time

import pytest

import serve_load
from serve_load import Device, encode, frame_messages


class FakeDaemon:
    """Speaks the serve protocol; can hold the first ack of every
    session (``ack_stall``) or the report (``report_stall``)."""

    def __init__(self, ack_stall=0.0, report_stall=0.0):
        self.ack_stall = ack_stall
        self.report_stall = report_stall
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.sessions = 0
        self.threads = []
        self.accept = threading.Thread(target=self._accept, daemon=True)
        self.accept.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      daemon=True)
            thread.start()
            self.threads.append(thread)

    def _serve(self, conn):
        buffer = bytearray()
        first = True
        with conn:
            while True:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    return
                buffer.extend(chunk)
                for message in frame_messages(buffer):
                    kind = message["kind"]
                    if kind == "hello":
                        self.sessions += 1
                        conn.sendall(encode({"kind": "welcome",
                                              "session_id": self.sessions}))
                    elif kind == "submit":
                        if first:
                            time.sleep(self.ack_stall)
                            first = False
                        conn.sendall(encode({"kind": "ack",
                                              "seq": message["seq"],
                                              "novel": 1, "repeats": 0}))
                    elif kind == "drain":
                        time.sleep(self.report_stall)
                        conn.sendall(encode({"kind": "report",
                                              "summary": {}}))
                        return

    def close(self):
        self.listener.close()


def device(batches):
    frames = [encode({"kind": "submit", "seq": i + 1, "signatures": []})
              for i in range(batches)]
    return Device("d", encode({"kind": "hello"}), frames, [1] * batches)


@pytest.fixture
def daemon_factory():
    made = []

    def make(**kwargs):
        daemon = FakeDaemon(**kwargs)
        made.append(daemon)
        return daemon

    yield make
    for daemon in made:
        daemon.close()


def test_latency_counts_from_due_time_through_a_stall(daemon_factory):
    daemon = daemon_factory(ack_stall=0.08)
    rate = 200.0                         # one batch per 10 ms overall
    result = serve_load.run_phase(daemon.port, [device(10)], 10, rate=rate)
    assert not result.errors
    batches = sorted(result.batches, key=lambda b: b.due)
    assert all(b.acked is not None for b in batches)
    for b in batches:
        assert b.latency == pytest.approx(b.acked - b.due)
        # the generator kept sending on schedule during the stall
        assert b.lag < 0.02
    first = batches[0].due
    stalled = [b for b in batches if b.due - first < 0.05]
    for b in stalled:
        # queued behind the held ack: its wait counts from its own due time
        assert b.latency >= 0.08 - (b.due - first) - 0.005


def test_late_sends_show_as_lag_and_latency(daemon_factory):
    daemon = daemon_factory(report_stall=0.06)
    rate = 100.0
    result = serve_load.run_phase(daemon.port, [device(2)], 8, rate=rate)
    assert not result.errors
    assert len(result.sessions) >= 4
    by_conn = {}
    for b in result.batches:
        by_conn.setdefault(b.conn, []).append(b)
    late = [b for bs in by_conn.values() for b in bs[2:3]]
    assert late, "every connection runs a second session"
    for b in late:
        # due while the previous session waited for its report
        assert b.lag > 0.03
        assert b.latency >= b.lag
    for s in result.sessions:
        assert s.reported - s.drain_sent >= 0.06


def test_busy_replies_are_counted_and_resent(daemon_factory):
    class BusyOnce(FakeDaemon):
        def _serve(self, conn):
            with conn:
                buffer = bytearray()
                refused = False
                while True:
                    chunk = conn.recv(1 << 16)
                    if not chunk:
                        return
                    buffer.extend(chunk)
                    for message in frame_messages(buffer):
                        kind = message["kind"]
                        if kind == "hello":
                            conn.sendall(encode({"kind": "welcome",
                                                 "session_id": 1}))
                        elif kind == "submit" and not refused:
                            refused = True
                            conn.sendall(encode({"kind": "busy",
                                                 "seq": message["seq"],
                                                 "retry_after_s": 0.01}))
                        elif kind == "submit":
                            conn.sendall(encode({"kind": "ack",
                                                 "seq": message["seq"]}))
                        elif kind == "drain":
                            conn.sendall(encode({"kind": "report"}))
                            return

    daemon = BusyOnce()
    try:
        result = serve_load.run_phase(daemon.port, [device(3)], 6,
                                      rate=100.0)
    finally:
        daemon.close()
    assert result.refused == 2           # once per connection
    assert all(b.acked is not None for b in result.batches)
    assert not result.errors
