"""Detailed out-of-order core + MESI simulator (the gem5 stand-in).

Models the paper's Section 7 configuration: eight x86 (TSO) cores on a
4x2 mesh with a MESI directory protocol.  Each core has:

* an 8-entry LSQ window: operations dispatch in order, but **loads
  execute speculatively out of order** (each with a random execute
  delay);
* in-order commit; committed stores enter a FIFO store buffer that
  drains through the coherence protocol (obtaining M state per line);
* LSQ store-to-load forwarding;
* the x86 memory-ordering safeguard: an invalidation squashes every
  speculatively-executed but uncommitted load to the invalidated line,
  forcing re-execution.  The injected bugs of :mod:`repro.sim.faults`
  disable exactly this safeguard (entirely, or only during S->M
  upgrades), reproducing the paper's load->load violations; bug 3
  instead crashes the protocol on a writeback race.

The executor exposes the same interface as
:class:`repro.sim.executor.OperationalExecutor`, so
:class:`repro.harness.Campaign` can drive it unchanged.
"""

from __future__ import annotations

import random
from functools import partial

from repro.errors import ExecutionError, ProtocolCrash
from repro.isa.instructions import INIT, INIT_VALUE, OpKind
from repro.isa.layout import MemoryLayout
from repro.isa.program import TestProgram
from repro.mcm.model import MemoryModel
from repro.obs import get_obs
from repro.sim.coherence import CoherentSystem, EventQueue
from repro.sim.execution import (
    Execution,
    ExecutionCounters,
    record_execution_metrics,
)
from repro.sim.faults import FaultConfig, NO_FAULT
from repro.sim.platform import GEM5_X86_8CORE, Platform

_WAIT, _ISSUED, _DONE = 0, 1, 2
_LOAD, _STORE, _BARRIER = OpKind.LOAD, OpKind.STORE, OpKind.BARRIER


def _stuck_state(cores, system) -> str:
    """Diagnostic snapshot for livelock/deadlock crash reports."""
    parts = []
    for core in cores:
        if core.finished:
            continue
        head = core.lsq[0] if core.lsq else None
        head_desc = ("%s status=%d line=%s" % (head.op.describe(), head.status,
                                               head.line)) if head else "-"
        cache_lines = {line: entry.state
                       for line, entry in system.caches[core.tid].lines.items()
                       if entry.state != "I"}
        parts.append("core%d: lsq=%d sb=%d head[%s] lines=%s"
                     % (core.tid, len(core.lsq), len(core.sb), head_desc, cache_lines))
    busy = [(d.index, line, e.state, e.request_kind, e.acks_needed)
            for d in system.dirs for line, e in d.lines.items() if e.busy]
    parts.append("busy-dirs=%s" % busy)
    return "; ".join(parts)


class _LsqEntry:
    """One LSQ slot.  ``value`` is the value a store writes, or the value
    a load read (None until known); ``line`` is None for barriers."""

    __slots__ = ("op", "kind", "addr", "line", "status", "value",
                 "forwarded")

    def __init__(self, op, kind, addr, line, value):
        self.op = op
        self.kind = kind
        self.addr = addr
        self.line = line
        self.status = _WAIT
        self.value = value
        self.forwarded = False


class _Core:
    __slots__ = ("tid", "fields", "num_ops", "next_dispatch", "lsq", "sb",
                 "draining", "finished")

    def __init__(self, tid, fields):
        self.tid = tid
        self.fields = fields    # (op, kind, addr, line, value) per op
        self.num_ops = len(fields)
        self.next_dispatch = 0
        self.lsq = []
        self.sb = []            # (line, addr, value) in program order
        self.draining = False
        self.finished = False


class DetailedExecutor:
    """Runs a test on the detailed MESI simulator.

    Args:
        program: test to run (threads are mapped 1:1 onto cores).
        faults: bug injection / cache sizing (see :class:`FaultConfig`).
        lsq_size: LSQ window entries per core.
        layout: word->line mapping (``words_per_line`` intensifies the
            line contention the injected bugs need, per paper Table 3).

    Other parameters mirror :class:`OperationalExecutor` for harness
    compatibility; the memory model is always TSO (x86).
    """

    def __init__(self, program: TestProgram, model: MemoryModel = None,
                 platform: Platform = None, *, seed: int = 0,
                 instrumentation: str = None, codec=None,
                 layout: MemoryLayout = None, os_model=None,
                 sync_barriers: bool = False, faults: FaultConfig = NO_FAULT,
                 lsq_size: int = 8):
        platform = platform or GEM5_X86_8CORE
        if program.num_threads > platform.num_cores:
            raise ExecutionError("%d test threads exceed %d cores"
                                 % (program.num_threads, platform.num_cores))
        if model is not None and model.name != "tso":
            raise ExecutionError("the detailed simulator models x86-TSO only")
        self.program = program
        self.platform = platform
        self.faults = faults
        self.lsq_size = lsq_size
        self.codec = codec
        self.instrumentation = instrumentation
        self.rng = random.Random(seed)
        self.layout = layout or MemoryLayout(program.num_addresses, 1)
        self._value_to_uid = {op.value: op.uid for op in program.stores}
        line_of = self.layout.line_of
        #: per thread, each op's LSQ fields: (op, kind, addr, line, value)
        self._lsq_fields = [
            [(op, op.kind, op.addr,
              None if op.kind is _BARRIER else line_of(op.addr), op.value)
             for op in tp.ops]
            for tp in program.threads]
        self._squashed_loads = 0
        self._events_processed = 0

    # -- public API ----------------------------------------------------------------

    def reseed(self, seed: int) -> None:
        """Reset the RNG stream; per-iteration state is rebuilt anyway."""
        self.rng.seed(seed)

    def run_one(self) -> Execution:
        """Execute one iteration; returns a crashed Execution on bug 3."""
        self._squashed_loads = 0
        self._events_processed = 0
        try:
            execution = self._simulate()
        except ProtocolCrash:
            execution = Execution({}, {}, ExecutionCounters(), crashed=True)
        obs = get_obs()
        if obs.enabled:
            record_execution_metrics(obs, "sim.detailed", execution)
            metrics = obs.metrics
            metrics.counter("sim.detailed.events_processed").inc(
                self._events_processed)
            metrics.counter("sim.detailed.load_squashes").inc(
                self._squashed_loads)
        return execution

    def run(self, iterations: int):
        for _ in range(iterations):
            yield self.run_one()

    # -- simulation ------------------------------------------------------------------

    def _simulate(self) -> Execution:
        events = EventQueue()
        system = CoherentSystem(self.platform.num_cores, self.rng, events,
                                self.faults)
        rng = self.rng
        schedule = events.schedule
        program = self.program
        caches = system.caches
        lsq_size = self.lsq_size
        source_of = self._source_of
        cores = [_Core(tp.thread, fields)
                 for tp, fields in zip(program.threads, self._lsq_fields)]
        rf: dict[int, object] = {}
        counters = ExecutionCounters()
        max_events = 2000 * max(1, program.num_ops) + 10000

        def dispatch(core: _Core) -> None:
            if core.next_dispatch >= core.num_ops:
                return
            lsq = core.lsq
            if len(lsq) >= lsq_size:
                schedule(1.0 + rng.random(), dispatch, core)
                return
            entry = _LsqEntry(*core.fields[core.next_dispatch])
            core.next_dispatch += 1
            lsq.append(entry)
            if entry.kind is _LOAD:
                schedule(0.5 + rng.random() * 6.0, issue_load, core, entry)
            else:
                entry.status = _DONE   # stores/barriers are ready at dispatch
                try_commit(core)
            schedule(1.0 + rng.random() * 0.2, dispatch, core)

        def issue_load(core: _Core, entry: _LsqEntry) -> None:
            # a waiting load is always still in the LSQ: only done loads
            # commit, and a squash re-schedules at most one issue
            if entry.status != _WAIT:
                return
            addr = entry.addr
            # LSQ + store-buffer forwarding: youngest older same-address store
            value = None
            for other in core.lsq:
                if other is entry:
                    break
                if other.kind is _STORE and other.addr == addr:
                    value = other.value
            if value is None:
                for _, sb_addr, sb_value in reversed(core.sb):
                    if sb_addr == addr:
                        value = sb_value
                        break
            if value is not None:
                entry.value = value
                entry.status = _DONE
                entry.forwarded = True
                try_commit(core)
                return
            entry.status = _ISSUED
            counters.test_accesses += 1
            caches[core.tid].load(entry.line, addr,
                                  partial(complete_load, core, entry))

        def complete_load(core: _Core, entry: _LsqEntry, value: int) -> None:
            if entry.status != _ISSUED:
                return
            entry.value = value
            entry.status = _DONE
            try_commit(core)

        def try_commit(core: _Core) -> None:
            lsq = core.lsq
            while lsq:
                entry = lsq[0]
                kind = entry.kind
                if kind is _BARRIER:
                    if core.sb:
                        return          # mfence: wait for the SB to drain
                    del lsq[0]
                    continue
                if kind is _STORE:
                    del lsq[0]
                    core.sb.append((entry.line, entry.addr, entry.value))
                    if not core.draining:
                        core.draining = True
                        # stores linger in the buffer: this window is what
                        # lets TSO loads overtake them (store buffering)
                        schedule(4.0 + rng.random() * 10.0, drain_sb, core)
                    continue
                if entry.status != _DONE:
                    return
                rf[entry.op.uid] = source_of(entry.value)
                del lsq[0]
            if core.next_dispatch >= core.num_ops and not core.sb:
                core.finished = True

        def drain_sb(core: _Core) -> None:
            if not core.sb:
                core.draining = False
                try_commit(core)
                return
            line, addr, value = core.sb[0]
            counters.test_accesses += 1
            caches[core.tid].store(line, addr, value,
                                   partial(store_done, core))

        def store_done(core: _Core) -> None:
            del core.sb[0]
            schedule(1.0 + rng.random() * 3.0, drain_sb, core)

        # wire invalidation squash from each L1 into its core's LSQ
        for core in cores:
            caches[core.tid].on_inv = self._squasher(core, schedule, rng,
                                                     issue_load)
        for core in cores:
            schedule(rng.random() * 2.0, dispatch, core)

        try:
            processed = events.run(max_events)
        finally:
            self._events_processed = events.processed
        if processed > max_events:
            raise ProtocolCrash("protocol livelock: event budget exhausted; %s"
                                % _stuck_state(cores, system))
        if not all(core.finished for core in cores):
            raise ProtocolCrash("protocol deadlock: %s"
                                % _stuck_state(cores, system))

        ws = {addr: [self._value_to_uid[v] for v in chain]
              for addr, chain in system.store_order.items()}
        for addr in range(program.num_addresses):
            ws.setdefault(addr, [])
        counters.base_cycles = events.now
        return Execution(rf, ws, counters)

    # -- helpers ----------------------------------------------------------------------

    def _squasher(self, core: _Core, schedule, rng, issue_load):
        """The x86 LSQ invalidation rule for one core.

        Re-executes every speculatively-completed, uncommitted load whose
        line was invalidated, except loads whose value came from store
        forwarding.  That exception is a known defect: a forwarded load
        can complete ahead of an older load and stay uncommitted after
        its source store has drained and another core's GETX has recalled
        the line, so its value can be stale and TSO's load->load order
        breaks (``tests/test_sim_detailed.py`` keeps the repro as a strict
        xfail).  The fault configuration decides whether this callback is
        invoked at all (bugs 1 and 2 suppress it).
        """
        def squash(line: int) -> None:
            for entry in core.lsq:
                if (entry.kind is _LOAD and entry.status == _DONE
                        and not entry.forwarded and entry.line == line):
                    entry.status = _WAIT
                    entry.value = None
                    self._squashed_loads += 1
                    schedule(0.5 + rng.random(), issue_load, core, entry)
        return squash

    def _source_of(self, value: int):
        if value == INIT_VALUE:
            return INIT
        try:
            return self._value_to_uid[value]
        except KeyError:
            raise ExecutionError("load observed unknown value %d" % value) from None
