"""The asyncio ingest daemon: sessions, backpressure, graceful drain.

One daemon process owns the listening socket, the cross-client
:class:`~repro.serve.dedup.SignatureDedupStore`, and one
:class:`~repro.serve.session.CampaignSession` per connected client.
The event loop only moves frames; *checking runs on executor threads*,
so a heavy batch never stalls another client's acks.

Flow control is explicit, not TCP-implicit: each session owns a bounded
``asyncio.Queue``; a ``submit`` arriving while the queue is full is
answered with a ``busy`` frame and dropped — the client owns the batch
and re-submits.  This keeps daemon memory bounded by
``sessions x queue_depth x max_batch`` no matter how fast devices emit.

Drain discipline (client ``drain``, disconnect, or daemon SIGTERM): no
accepted batch is ever dropped and none is checked twice — intake
stops, the queue finishes, and exactly one final report per session is
flushed, built by replaying the session's multiset through the
canonical batch pipeline (byte-identical to ``repro run``).  On SIGTERM
the daemon exits 0 only after every live session's report is flushed
(and, with ``--report-out``, journaled).

Sessions are crash-isolated: an exception while checking one client's
batch tears down that session (error frame, ``serve.session.error``
event) and leaves the daemon and every other session running.

With a worker pool attached (``--pool-port``), batches of at least
``offload`` entries are checked on a remote worker via the
``repro.fleet.remote`` check task instead of the daemon's executor —
the daemon stays an ingest front-end while heavy traffic fans out.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import time
from dataclasses import dataclass

from repro.io import load_program
from repro.obs import get_obs
from repro.serve.dedup import SignatureDedupStore
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    expect_kind,
    negotiate_hello,
    read_frame_async,
    write_frame_async,
)
from repro.serve.session import CampaignSession

_DRAIN = object()          # queue sentinel: stop after what is queued


@dataclass
class ServeConfig:
    """Daemon knobs (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: bounded ingest-queue capacity per session (backpressure beyond)
    queue_depth: int = 8
    #: largest signature batch one submit may carry
    max_batch: int = 4096
    #: suggested client wait shipped in busy frames
    retry_after_s: float = 0.05
    #: write the bound port here once listening (CI/port discovery)
    port_file: str = None
    #: append every flushed session report here as JSONL
    report_out: str = None
    #: JSONL journal for the cross-client dedup store
    dedup_path: str = None
    #: also listen for remote checking workers on this port (0 = pick)
    pool_port: int = None
    #: batches with at least this many entries check on the pool
    offload: int = 512
    #: finalize pipeline: "delta" (default), array-compiled "packed",
    #: frontier-closure "poly" or "auto" (an alias of "packed")
    #: (:data:`repro.checker.SERVE_PIPELINES`)
    check_pipeline: str = "delta"


class ServeDaemon:
    """The resident checking service behind ``repro serve``."""

    def __init__(self, config: ServeConfig = None, progress=None,
                 on_beat=None):
        self.config = config or ServeConfig()
        self.dedup = SignatureDedupStore(self.config.dedup_path)
        self.progress = progress
        self.on_beat = on_beat
        self.reports: list = []
        self.pool = None
        self._server = None
        self._session_seq = 0
        self._connections: set = set()
        self._drain_event: asyncio.Event = None
        self._drain_reason = "close"
        self.port = None

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> None:
        """Bind, listen, and (optionally) open the worker-pool port."""
        self._drain_event = asyncio.Event()
        #: the serving loop; cross-thread callers drain via
        #: ``daemon.loop.call_soon_threadsafe(daemon.request_drain)``
        self.loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._serve_client, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.pool_port is not None:
            from repro.fleet.remote import TcpWorkerPool

            self.pool = TcpWorkerPool(host=self.config.host,
                                      port=self.config.pool_port)
        if self.config.port_file:
            with open(self.config.port_file, "w") as handle:
                handle.write("%d\n" % self.port)

    def request_drain(self, reason: str = "sigterm") -> None:
        """Begin graceful drain (signal handlers land here)."""
        self._drain_reason = reason
        self._drain_event.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_drain, "sigterm")
            except (NotImplementedError, RuntimeError, ValueError):
                pass   # non-unix loops, or serving off the main thread

    async def run_until_drained(self) -> None:
        """Serve until a drain is requested, then flush everything."""
        await self._drain_event.wait()
        obs = get_obs()
        obs.emit("serve.drain", sessions=len(self._connections),
                 reason=self._drain_reason)
        self._server.close()
        await self._server.wait_closed()
        # every connection handler notices the drain event, finishes its
        # queued batches, flushes its report, and exits on its own
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)
        self._snapshot_dedup(obs)
        if self.pool is not None:
            self.pool.close()
        self.dedup.close()

    def _snapshot_dedup(self, obs) -> None:
        self.dedup.record_gauges(obs)
        obs.emit("serve.dedup", hits=self.dedup.hits,
                 misses=self.dedup.misses,
                 unique=self.dedup.unique_signatures,
                 campaigns=self.dedup.campaigns)

    # -- per-connection ----------------------------------------------------------------

    async def _serve_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._client_session(reader, writer)
        except Exception:
            pass                         # teardown below; daemon survives
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _client_session(self, reader, writer) -> None:
        write_lock = asyncio.Lock()

        async def send(message: dict) -> None:
            async with write_lock:
                await write_frame_async(writer, message)

        try:
            hello = negotiate_hello(await read_frame_async(reader))
            program = load_program(hello["program"])
        except EOFError:
            return
        except Exception as exc:
            try:
                await send({"kind": "error", "message": "%s" % exc,
                            "v": PROTOCOL_VERSION})
            except Exception:
                pass
            return

        self._session_seq += 1
        session = CampaignSession(self._session_seq, program,
                                  hello["register_width"], self.dedup,
                                  label=hello.get("session") or "",
                                  pipeline=self.config.check_pipeline)
        if self.progress is not None:
            self.progress.launch(session.session_id, 0, 1,
                                 label="serve:%s" % (session.label or
                                                     session.session_id))
        await send({"kind": "welcome", "v": PROTOCOL_VERSION,
                    "session_id": session.session_id,
                    "max_batch": self.config.max_batch,
                    "queue_depth": self.config.queue_depth})

        queue: asyncio.Queue = asyncio.Queue(self.config.queue_depth)
        intake = asyncio.ensure_future(
            self._intake(session, queue, send, reader))
        consumer = asyncio.ensure_future(
            self._consume(session, queue, send))
        try:
            # the race matters: a consumer crash must stop intake at
            # once, or a client waiting for its ack would hang
            await asyncio.wait({intake, consumer},
                               return_when=asyncio.FIRST_COMPLETED)
            if consumer.done() and consumer.exception() is not None:
                raise consumer.exception()
            drained_by_daemon = await intake
            await consumer            # raises if the session crashed
        except Exception as exc:
            intake.cancel()
            consumer.cancel()
            await self._teardown(session, send, exc)
            return
        await self._flush_report(session, send, drained_by_daemon)

    async def _intake(self, session, queue, send, reader) -> bool:
        """The read loop; returns True when stopped by daemon drain."""
        obs = get_obs()
        drain_wait = asyncio.ensure_future(self._drain_event.wait())
        read = None
        try:
            while True:
                read = asyncio.ensure_future(read_frame_async(reader))
                done, _ = await asyncio.wait(
                    {read, drain_wait},
                    return_when=asyncio.FIRST_COMPLETED)
                if read not in done:          # daemon drain (SIGTERM)
                    read.cancel()
                    await queue.put(_DRAIN)
                    return True
                try:
                    message = read.result()
                except EOFError:              # client went away mid-stream
                    await queue.put(_DRAIN)
                    return False
                kind = expect_kind(message, "submit", "drain")
                if kind == "drain":
                    await queue.put(_DRAIN)
                    return False
                entries = message.get("signatures") or []
                if len(entries) > self.config.max_batch:
                    raise ProtocolError(
                        "batch of %d entries exceeds max_batch %d"
                        % (len(entries), self.config.max_batch))
                if queue.full():
                    obs.emit("serve.busy", session=session.session_id,
                             seq=message.get("seq", 0),
                             queue_depth=self.config.queue_depth)
                    obs.counter("serve.busy_replies").inc()
                    await send({"kind": "busy",
                                "seq": message.get("seq", 0),
                                "retry_after_s": self.config.retry_after_s,
                                "queue_depth": self.config.queue_depth})
                    continue
                queue.put_nowait(message)
        finally:
            if read is not None and not read.done():
                read.cancel()
            drain_wait.cancel()

    async def _consume(self, session, queue, send) -> None:
        """Check queued batches in submission order; ack each one."""
        loop = asyncio.get_running_loop()
        while True:
            message = await queue.get()
            if message is _DRAIN:
                return
            ack = await loop.run_in_executor(
                None, self._check_batch, session, message)
            await send(ack.payload(queued=queue.qsize()))
            self._beat(session)

    def _check_batch(self, session, message):
        """One batch on an executor thread (local or pool-offloaded)."""
        entries = message.get("signatures") or []
        seq = message.get("seq", 0)
        iterations = message.get("iterations")
        crashes = message.get("crashes", 0)
        if (self.pool is not None and len(entries) >= self.config.offload
                and self.pool.live_workers):
            digest = self.pool.check_remote(
                session.remote_dump(entries),
                pipeline=self.config.check_pipeline)
            if digest is not None:
                return session.ingest_checked(
                    entries, digest["violations"], seq=seq,
                    iterations=iterations, crashes=crashes)
            # every pool worker died: fall through to the local path
        return session.ingest(entries, seq=seq, iterations=iterations,
                              crashes=crashes)

    def _beat(self, session) -> None:
        if self.progress is None:
            return
        obs = get_obs()
        self.progress.heartbeat(session.session_id,
                                session.progress_payload())
        self.progress.record_gauges(obs)
        self.dedup.record_gauges(obs)
        if self.on_beat is not None:
            self.on_beat(self.progress.snapshot())

    # -- drain / teardown --------------------------------------------------------------

    async def _flush_report(self, session, send, drained: bool) -> None:
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(None, session.finalize, drained)
        self.reports.append(report)
        self._journal_report(report)
        if self.progress is not None:
            self.progress.finish(session.session_id, crashed=False)
            if self.on_beat is not None:
                self.on_beat(self.progress.snapshot())
        self._snapshot_dedup(get_obs())
        try:
            await send(report.payload())
        except Exception:
            pass                        # client already gone: report kept

    async def _teardown(self, session, send, exc) -> None:
        """Crash-isolated session teardown: this client only."""
        obs = get_obs()
        obs.emit("serve.session.error", session=session.session_id,
                 error="%s: %s" % (type(exc).__name__, exc))
        obs.counter("serve.sessions_crashed").inc()
        if self.progress is not None:
            self.progress.finish(session.session_id, crashed=True)
        try:
            await send({"kind": "error",
                        "message": "session %d failed: %s"
                        % (session.session_id, exc),
                        "v": PROTOCOL_VERSION})
        except Exception:
            pass

    def _journal_report(self, report) -> None:
        if not self.config.report_out:
            return
        with open(self.config.report_out, "a") as handle:
            handle.write(json.dumps(report.to_doc(), sort_keys=True) + "\n")


async def _serve_async(config: ServeConfig, progress=None, on_beat=None,
                       ready=None) -> ServeDaemon:
    daemon = ServeDaemon(config, progress=progress, on_beat=on_beat)
    await daemon.start()
    daemon.install_signal_handlers()
    if ready is not None:
        ready(daemon)
    await daemon.run_until_drained()
    return daemon


def serve_forever(config: ServeConfig, progress=None, on_beat=None,
                  ready=None) -> ServeDaemon:
    """Run the daemon until SIGTERM/SIGINT drains it; returns the
    drained daemon (reports included) — the ``repro serve`` body."""
    return asyncio.run(_serve_async(config, progress=progress,
                                    on_beat=on_beat, ready=ready))


def wait_for_port(port_file: str, timeout_s: float = 10.0) -> int:
    """Poll a ``--port-file`` until the daemon writes its port."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with open(port_file) as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.02)
    raise TimeoutError("no port appeared in %s within %.1fs"
                       % (port_file, timeout_s))


def probe(host: str, port: int, timeout_s: float = 2.0) -> bool:
    """True when something accepts TCP connections at host:port."""
    try:
        with socket.create_connection((host, port), timeout=timeout_s):
            return True
    except OSError:
        return False
