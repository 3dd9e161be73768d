"""Event-driven MESI directory protocol (the gem5 stand-in's memory side).

A deliberately compact but race-capable implementation of a directory
MESI protocol over a 4x2 mesh (the paper's Section 7 configuration):

* one L1 controller per core (stable states I/S/E/M, transients IS/IM/SM,
  writeback-pending lines, capacity evictions),
* directories at the mesh corners, interleaved by line address, each
  serializing requests per line (busy + pending queue),
* per-channel FIFO message delivery with distance-based latency.

The protocol is exact enough to expose the three injected bugs of
:mod:`repro.sim.faults`: invalidations racing S->M upgrades (bug 1),
invalidation-squash interplay with the LSQ (bug 2, via the ``on_inv``
callback), and the PUTX/GETX writeback race (bug 3).
"""

from __future__ import annotations

import heapq

from repro.errors import ProtocolCrash
from repro.sim.faults import FaultConfig, NO_FAULT

# L1 line states
I, S, E, M = "I", "S", "E", "M"
IS, IM, SM = "IS", "IM", "SM"   # transients: awaiting data / ownership
_STABLE = frozenset((S, E, M))
_TRANSIENT = frozenset((IS, IM, SM))
_OWNED = frozenset((E, M))


class EventQueue:
    """Global discrete-event queue with deterministic ordering.

    Events run in ``(time, scheduling order)`` order; ``processed``
    counts every event :meth:`run` has completed.
    """

    __slots__ = ("_heap", "_seq", "now", "processed")

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0.0
        self.processed = 0

    def schedule(self, delay: float, fn, *args) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def run(self, budget: int) -> int:
        """Run events until the queue is empty or more than ``budget`` of
        them have run in this call (the caller's livelock bound).

        Returns the number run.  A handler's exception propagates, and
        ``processed`` then counts only the events completed before it.
        """
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                self.now, _, fn, args = pop(heap)
                fn(*args)
                processed += 1
                if processed > budget:
                    break
        finally:
            self.processed += processed
        return processed

    def __len__(self):
        return len(self._heap)


class Mesh:
    """4x2 mesh latency model with per-channel FIFO delivery."""

    __slots__ = ("events", "rng", "hop", "base", "_coords", "_channels")

    def __init__(self, events: EventQueue, rng, num_cores: int = 8,
                 hop_latency: float = 2.0, base_latency: float = 3.0):
        self.events = events
        self.rng = rng
        self.hop = hop_latency
        self.base = base_latency
        self._coords = {("core", i): (i % 4, i // 4) for i in range(num_cores)}
        # directories at the four mesh corners
        for d, xy in enumerate(((0, 0), (3, 0), (0, 1), (3, 1))):
            self._coords[("dir", d)] = xy
        #: (src, dst) -> [base latency, last delivery time]
        self._channels: dict[tuple, list] = {}

    def send(self, src: tuple, dst: tuple, fn, *args) -> None:
        """Deliver ``fn(*args)`` at ``dst`` after the network delay.

        Delivery per (src, dst) channel is FIFO: a message never overtakes
        an earlier one on the same channel.
        """
        channel = self._channels.get((src, dst))
        if channel is None:
            (x0, y0), (x1, y1) = self._coords[src], self._coords[dst]
            hops = abs(x0 - x1) + abs(y0 - y1)
            channel = self._channels[src, dst] = [
                self.base + hops * self.hop, 0.0]
        events = self.events
        now = events.now
        arrival = now + channel[0] * (1.0 + self.rng.random() * 0.35)
        earliest = channel[1] + 1e-6
        if earliest > arrival:
            arrival = earliest
        channel[1] = arrival
        events._seq += 1
        # scheduled as a delay from now, exactly as EventQueue.schedule
        # would: now + (arrival - now) need not equal arrival in floats
        heapq.heappush(events._heap,
                       (now + (arrival - now), events._seq, fn, args))


class _Line:
    """One L1 line: its state and words, and what waits on it."""

    __slots__ = ("state", "data", "waiting_loads", "waiting_store",
                 "getx_outstanding")

    def __init__(self):
        self.state = I
        self.data = {}              # word addr -> value
        #: loads waiting for data, stores waiting for ownership
        self.waiting_loads = []
        self.waiting_store = None
        #: a GETX for this line is queued at the directory; guards
        #: against duplicate ownership requests (whose stale grants could
        #: otherwise clobber newer local writes)
        self.getx_outstanding = False


class L1Cache:
    """One core's L1 controller.

    Args:
        core: core index.
        system: the owning :class:`CoherentSystem`.
        capacity: line capacity; small values force evictions (bug 1/3
            intensification, paper Section 7).
    """

    __slots__ = ("core", "system", "capacity", "lines", "wb_pending",
                 "on_inv", "_squash_on_inv", "_squash_on_inv_in_sm",
                 "_crash_on_writeback_race")

    def __init__(self, core: int, system: "CoherentSystem", capacity: int):
        self.core = core
        self.system = system
        self.capacity = capacity
        self.lines: dict[int, _Line] = {}
        self.wb_pending: set[int] = set()
        #: callback(line) -> None: invoked when an invalidation must squash
        #: speculatively executed loads (wired by the core model)
        self.on_inv = lambda line: None
        # the injected bugs, resolved once per controller
        faults = system.faults
        self._squash_on_inv = faults.squash_on_inv
        self._squash_on_inv_in_sm = faults.squash_on_inv_in_sm
        self._crash_on_writeback_race = faults.crash_on_writeback_race

    # -- core-facing API ---------------------------------------------------------

    def load(self, line: int, addr: int, callback) -> None:
        """Read ``addr``; ``callback(value)`` fires when the value is known."""
        entry = self.lines.get(line)
        if entry is not None:
            state = entry.state
            if state in _STABLE:
                callback(entry.data.get(addr, 0))
                return
            if state in _TRANSIENT:
                entry.waiting_loads.append((addr, callback))
                return
        entry = self._allocate(line)
        entry.state = IS
        entry.waiting_loads.append((addr, callback))
        self.system.request("GETS", line, self.core)

    def store(self, line: int, addr: int, value: int, callback) -> None:
        """Write ``addr``; ``callback()`` fires once globally performed."""
        entry = self.lines.get(line)
        if entry is not None:
            state = entry.state
            if state in _OWNED:
                entry.state = M
                entry.data[addr] = value
                self.system.record_store(addr, value)
                callback()
                return
            if state == S:
                entry.state = SM
                entry.waiting_store = (addr, value, callback)
                if not entry.getx_outstanding:
                    entry.getx_outstanding = True
                    self.system.request("GETX", line, self.core)
                return
            if state in _TRANSIENT:
                # One outstanding store per line suffices for an in-order
                # SB.  In IS the upgrade is deferred until the GETS data
                # arrives (handle_data issues the GETX), avoiding
                # duplicate requests.
                entry.waiting_store = (addr, value, callback)
                return
        entry = self._allocate(line)
        entry.state = IM
        entry.waiting_store = (addr, value, callback)
        entry.getx_outstanding = True
        self.system.request("GETX", line, self.core)

    def peek(self, line: int, addr: int):
        """Non-coherent debug read (None when absent)."""
        entry = self.lines.get(line)
        if entry is not None and entry.state in _STABLE:
            return entry.data.get(addr)
        return None

    # -- protocol handlers ----------------------------------------------------------

    def handle_data(self, line: int, grant: str, data: dict) -> None:
        """DATA_S / DATA_E / DATA_M arrival from the directory."""
        entry = self.lines.get(line)
        if entry is None:     # allocate on late arrival (evicted transient: not modelled)
            entry = self._allocate(line)
        if entry.state in _STABLE:
            # Duplicate grant (e.g. a queued request granted after the
            # line was already obtained): our copy is authoritative or
            # identical — merging the grant could clobber newer local
            # writes with the directory's stale words.
            return
        if grant == "M":
            entry.getx_outstanding = False
        entry.data.update(data)
        entry.state = grant           # the grant names its stable state
        if entry.waiting_loads:
            words = entry.data
            for addr, callback in entry.waiting_loads:
                callback(words.get(addr, 0))
            entry.waiting_loads.clear()
        if entry.waiting_store is not None:
            if entry.state in _OWNED:
                addr, value, callback = entry.waiting_store
                entry.waiting_store = None
                entry.state = M
                entry.data[addr] = value
                self.system.record_store(addr, value)
                callback()
            else:
                # Granted S while a store waits: enter the S->M upgrade
                # window, issuing the GETX if none is outstanding yet
                # (the deferred-upgrade path from store() in IS).
                entry.state = SM
                if not entry.getx_outstanding:
                    entry.getx_outstanding = True
                    self.system.request("GETX", line, self.core)

    def handle_inv(self, line: int) -> None:
        """Invalidation on behalf of another core's GETX."""
        entry = self.lines.get(line)
        if entry is not None:
            state = entry.state
            if state == SM:
                # lost an upgrade race: fall back to IM and await DATA_M
                if self._squash_on_inv_in_sm:
                    self.on_inv(line)
                entry.state = IM
                entry.data.clear()
            elif state in _STABLE:
                if self._squash_on_inv:
                    self.on_inv(line)
                del self.lines[line]
            # I, IS, IM: not yet a sharer for this epoch; ack and carry on
        self.system.inv_ack(line, self.core)

    def handle_fetch(self, line: int, invalidate: bool) -> None:
        """Directory recall (FETCH / FETCH_INV) for an owned line."""
        entry = self.lines.get(line)
        if entry is None or entry.state not in _OWNED:
            if self._crash_on_writeback_race:
                raise ProtocolCrash(
                    "invalid transition: FETCH for line %d in state %s at core %d"
                    % (line, entry.state if entry else I, self.core))
            # correct protocol: the in-flight PUTX carries the data; tell
            # the directory to use it
            self.system.fetch_stale(line, self.core)
            return
        data = dict(entry.data)
        if invalidate:
            if self._squash_on_inv:
                self.on_inv(line)
            del self.lines[line]
        else:
            entry.state = S
        self.system.writeback_data(line, self.core, data)

    # -- internals ----------------------------------------------------------------------

    def _allocate(self, line: int) -> _Line:
        lines = self.lines
        if len(lines) >= self.capacity and line not in lines:
            self._evict()
        entry = lines[line] = _Line()
        return entry

    def _evict(self) -> None:
        lines = self.lines
        stable = 0
        for entry in lines.values():
            if entry.state in _STABLE:
                stable += 1
        if not stable:
            return   # transients cannot be evicted; allow mild over-capacity
        # the victim is the k-th stable line in allocation order
        k = int(self.system.rng.random() * stable)
        for victim, entry in lines.items():
            if entry.state in _STABLE:
                if not k:
                    break
                k -= 1
        del lines[victim]
        # Losing the line means no future invalidation will reach this
        # core, so speculatively-executed loads to it must re-execute now.
        # This safeguard is part of the LSQ/eviction datapath, not the
        # invalidation handling the injected bugs disable.
        self.on_inv(victim)
        if entry.state in (E, M):
            self.wb_pending.add(victim)
            self.system.putx(victim, self.core, dict(entry.data))


class _DirLine:
    """The directory's record of one line."""

    __slots__ = ("state", "sharers", "owner", "data", "busy", "pending",
                 "acks_needed", "requestor", "request_kind")

    def __init__(self):
        self.state = "U"            # U (at dir) / S (sharers) / E (owner)
        self.sharers = set()
        self.owner = None
        self.data = {}
        self.busy = False
        self.pending = []           # queued (kind, core)
        # in-flight GETX bookkeeping
        self.acks_needed = 0
        self.requestor = None
        self.request_kind = None


class Directory:
    """One directory slice, serializing coherence per line."""

    __slots__ = ("index", "system", "lines")

    def __init__(self, index: int, system: "CoherentSystem"):
        self.index = index
        self.system = system
        self.lines: dict[int, _DirLine] = {}

    def _line(self, line: int) -> _DirLine:
        entry = self.lines.get(line)
        if entry is None:
            entry = self.lines[line] = _DirLine()
        return entry

    # -- request entry point ------------------------------------------------------

    def request(self, kind: str, line: int, core: int) -> None:
        """Serve a request now, or queue it behind the line's in-flight
        transaction; the per-line queue preserves arrival order (it is
        drained whenever the line stops being busy, so it is empty
        whenever the line is idle)."""
        entry = self._line(line)
        if entry.busy:
            entry.pending.append((kind, core))
        elif kind == "GETS":
            self._gets(line, entry, core)
        else:
            self._getx(line, entry, core)

    def _drain(self, line: int, entry: "_DirLine") -> None:
        while entry.pending and not entry.busy:
            kind, core = entry.pending.pop(0)
            if kind == "GETS":
                self._gets(line, entry, core)
            else:
                self._getx(line, entry, core)

    def _gets(self, line: int, entry: _DirLine, core: int) -> None:
        sys = self.system
        if entry.state == "U":
            entry.state = "E"
            entry.owner = core
            sys.send_data(self.index, line, core, "E", entry.data)
        elif entry.state == "S":
            entry.sharers.add(core)
            sys.send_data(self.index, line, core, "S", entry.data)
        else:  # owned elsewhere: recall a shared copy
            if entry.owner == core:
                # owner lost the line silently? (not modelled) — grant again
                sys.send_data(self.index, line, core, "E", entry.data)
                return
            entry.busy = True
            entry.requestor = core
            entry.request_kind = "GETS"
            sys.send_fetch(self.index, line, entry.owner, invalidate=False)

    def _getx(self, line: int, entry: _DirLine, core: int) -> None:
        sys = self.system
        if entry.state == "U":
            entry.state = "E"
            entry.owner = core
            sys.send_data(self.index, line, core, "M", entry.data)
        elif entry.state == "S":
            others = entry.sharers - {core}
            if not others:
                entry.state = "E"
                entry.owner = core
                entry.sharers.clear()
                sys.send_data(self.index, line, core, "M", entry.data)
                return
            entry.busy = True
            entry.requestor = core
            entry.request_kind = "GETX"
            entry.acks_needed = len(others)
            for sharer in others:
                sys.send_inv(self.index, line, sharer)
        else:  # owned elsewhere
            if entry.owner == core:
                sys.send_data(self.index, line, core, "M", entry.data)
                return
            entry.busy = True
            entry.requestor = core
            entry.request_kind = "GETX"
            sys.send_fetch(self.index, line, entry.owner, invalidate=True)

    # -- responses ---------------------------------------------------------------------

    def inv_ack(self, line: int, core: int) -> None:
        entry = self._line(line)
        entry.sharers.discard(core)
        if not entry.busy:
            return
        entry.acks_needed -= 1
        if entry.acks_needed <= 0 and entry.request_kind == "GETX":
            self._grant_pending_getx(line, entry)

    def _grant_pending_getx(self, line: int, entry: _DirLine) -> None:
        entry.state = "E"
        entry.owner = entry.requestor
        entry.sharers.clear()
        self.system.send_data(self.index, line, entry.requestor, "M", entry.data)
        self._unbusy(line, entry)

    def writeback_data(self, line: int, core: int, data: dict) -> None:
        """Fetch response (or crossing PUTX) carrying the owned data."""
        entry = self._line(line)
        entry.data = dict(data)
        if entry.busy:
            if entry.request_kind == "GETS":
                entry.state = "S"
                entry.sharers = {core, entry.requestor}
                self.system.send_data(self.index, line, entry.requestor, "S", entry.data)
            else:
                entry.state = "E"
                entry.owner = entry.requestor
                entry.sharers.clear()
                self.system.send_data(self.index, line, entry.requestor, "M", entry.data)
            self._unbusy(line, entry)
        else:
            entry.state = "U"
            entry.owner = None

    def fetch_stale(self, line: int, core: int) -> None:
        """The fetched owner no longer holds the line: its PUTX crossed our
        FETCH on the network.  Wait — the PUTX will arrive and complete the
        transaction via :meth:`putx`."""
        # nothing to do: the pending request completes when PUTX arrives

    def putx(self, line: int, core: int, data: dict) -> None:
        entry = self._line(line)
        self.system.wb_ack(line, core)
        if entry.state == "E" and entry.owner == core:
            entry.data = dict(data)
            if entry.busy:
                # PUTX raced our FETCH: use its data to satisfy the request
                self.writeback_data(line, core, data)
            else:
                entry.state = "U"
                entry.owner = None
        # otherwise: stale PUTX for a line already transferred — drop

    def _unbusy(self, line: int, entry: _DirLine) -> None:
        entry.busy = False
        entry.requestor = None
        entry.request_kind = None
        entry.acks_needed = 0
        self._drain(line, entry)


class CoherentSystem:
    """L1s + directories + mesh, bound to one event queue.

    Args:
        num_cores: core count (paper Section 7 uses 8).
        num_lines_hint: used only to spread lines across directory slices.
        rng: shared random source.
        events: shared event queue.
        faults: bug-injection configuration.
    """

    def __init__(self, num_cores: int, rng, events: EventQueue,
                 faults: FaultConfig = NO_FAULT):
        self.rng = rng
        self.events = events
        self.faults = faults
        self.mesh = Mesh(events, rng, num_cores)
        self.caches = [L1Cache(core, self, faults.l1_lines)
                       for core in range(num_cores)]
        self.dirs = [Directory(d, self) for d in range(4)]
        #: mesh node names, built once: ("core", i) and ("dir", d)
        self._core_nodes = [("core", core) for core in range(num_cores)]
        self._dir_nodes = [("dir", d) for d in range(4)]
        #: per-address coherence order of store values, appended as each
        #: store's word write is globally performed
        self.store_order: dict[int, list[int]] = {}

    def dir_of(self, line: int) -> int:
        return line % 4

    def record_store(self, addr: int, value: int) -> None:
        self.store_order.setdefault(addr, []).append(value)

    # -- message helpers (all network hops go through the mesh) --------------------

    def request(self, kind: str, line: int, core: int) -> None:
        d = self.dir_of(line)
        self.mesh.send(self._core_nodes[core], self._dir_nodes[d],
                       self.dirs[d].request, kind, line, core)

    def send_data(self, d: int, line: int, core: int, grant: str, data: dict) -> None:
        self.mesh.send(self._dir_nodes[d], self._core_nodes[core],
                       self.caches[core].handle_data, line, grant, dict(data))

    def send_inv(self, d: int, line: int, core: int) -> None:
        self.mesh.send(self._dir_nodes[d], self._core_nodes[core],
                       self.caches[core].handle_inv, line)

    def send_fetch(self, d: int, line: int, core: int, invalidate: bool) -> None:
        self.mesh.send(self._dir_nodes[d], self._core_nodes[core],
                       self.caches[core].handle_fetch, line, invalidate)

    def inv_ack(self, line: int, core: int) -> None:
        d = self.dir_of(line)
        self.mesh.send(self._core_nodes[core], self._dir_nodes[d],
                       self.dirs[d].inv_ack, line, core)

    def writeback_data(self, line: int, core: int, data: dict) -> None:
        d = self.dir_of(line)
        self.mesh.send(self._core_nodes[core], self._dir_nodes[d],
                       self.dirs[d].writeback_data, line, core, data)

    def fetch_stale(self, line: int, core: int) -> None:
        d = self.dir_of(line)
        self.mesh.send(self._core_nodes[core], self._dir_nodes[d],
                       self.dirs[d].fetch_stale, line, core)

    def putx(self, line: int, core: int, data: dict) -> None:
        d = self.dir_of(line)
        self.mesh.send(self._core_nodes[core], self._dir_nodes[d],
                       self.dirs[d].putx, line, core, data)

    def wb_ack(self, line: int, core: int) -> None:
        self.mesh.send(self._dir_nodes[self.dir_of(line)], self._core_nodes[core],
                       self.caches[core].wb_pending.discard, line)
