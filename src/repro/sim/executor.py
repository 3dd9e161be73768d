"""Fast operational executor — the stand-in for the paper's silicon.

Executes a test program under an operational formulation of the target
MCM, producing non-deterministic but *model-compliant* interleavings:

* **SC** — one global memory; threads take turns completing operations.
* **TSO** — per-thread FIFO store buffers with store-to-load forwarding;
  stores drain to memory asynchronously (the x86-TSO abstract machine).
* **weak** — a bounded per-thread reorder window; any pending operation
  may complete as long as per-location coherence order and barriers are
  respected (RMO-style).

Scheduling is *timing-driven*: every action has a latency drawn from the
cache-line contention model, and the thread with the earliest clock acts
next.  Contention (including false sharing) therefore shapes the observed
interleavings exactly as it does on hardware (paper Sections 2 and 6.1).

The executor also charges the instrumentation's runtime costs:

* ``signature`` mode walks each load's compare/branch chain (cost grows
  with the observed candidate index; a per-site last-value branch
  predictor makes repeated patterns nearly free — paper Section 6.2), and
  stores the signature words at the end of the run;
* ``flush`` mode (the register-flushing baseline [24]) issues one extra
  log store after every load, perturbing timing and contending for store
  bandwidth.

Each machine is one hot loop over data laid out for it: every thread's
ops are compiled once per executor into flat ``(kind, addr, uid)``
tuples, and a live-thread list in index order survives across steps.
The weak machine never lists its eligible window entries on the plain
path: a non-empty window always has one, and a lazy scan picks the
completing entry.  The loops make exactly the random draws, in exactly
the order, of the straightforward formulation (list every eligible
entry, then draw for each but the last until one succeeds).  The fault
plane's trigger draws keep their places too.  ``tests/test_sim_golden.py``
pins that order through execution digests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.isa.instructions import INIT, OpKind
from repro.isa.layout import MemoryLayout
from repro.isa.program import TestProgram
from repro.mcm.model import MemoryModel
from repro.obs import get_obs
from repro.sim.contention import ContentionModel, LatencyConfig, UniformModel
from repro.sim.execution import (
    Execution,
    ExecutionCounters,
    record_execution_metrics as _record_execution_metrics,
)
from repro.sim.os_model import OSModel
from repro.sim.platform import Platform, platform_for_isa

#: cycles per compare+branch pair in the instrumented chain
_BRANCH_COST = 1.0
#: penalty for a mispredicted instrumentation branch
_MISPREDICT_PENALTY = 14.0
#: cycles to fetch one operation into the weak model's reorder window
_FETCH_COST = 0.5

_STORE, _BARRIER = OpKind.STORE, OpKind.BARRIER


@dataclass(frozen=True)
class Tuning:
    """Micro-architectural behaviour knobs of the operational machines.

    The defaults are calibrated (see EXPERIMENTS.md) so that the unique-
    interleaving counts across the paper's 21 test configurations follow
    Figure 8's shape: near-deterministic two-threaded runs, nearly
    all-unique seven-threaded runs, higher diversity on the weakly-ordered
    platform than on TSO, and more diversity under false sharing.
    """

    #: probability the TSO machine drains a store-buffer entry when it
    #: could also issue the next instruction
    drain_prob: float = 0.85
    #: probability the weak machine fetches (vs completing) when both are
    #: possible
    fetch_prob: float = 0.6
    #: geometric bias towards completing the *oldest* eligible window
    #: entry; 1.0 makes the weak machine fully in-order, lower values
    #: reorder more aggressively
    in_order_bias: float = 0.9
    #: start-of-iteration skew between threads, cycles (barrier release)
    start_skew: float = 0.5


DEFAULT_TUNING = Tuning()


class OperationalExecutor:
    """Runs a test program repeatedly, yielding :class:`Execution` results.

    Args:
        program: the test to execute.
        model: memory model to comply with (defaults to the platform's).
        platform: system under validation (defaults by heuristic to the
            ARM platform; pass one of :mod:`repro.sim.platform`'s presets).
        seed: RNG seed; one stream drives the whole run.
        instrumentation: ``None``, ``"signature"`` or ``"flush"``.
        codec: :class:`repro.instrument.SignatureCodec`, required for
            ``"signature"`` mode (provides candidate orders and word counts).
        layout: word->line mapping; defaults to one word per line.
        uniform_random: ignore timing and pick uniformly among ready
            threads (the paper's SC limit-study simulator, Section 4.1).
        os_model: optional :class:`OSModel` for the Linux perturbation runs.
        sync_barriers: treat barriers as global rendezvous points in
            addition to their local ordering effect (used for regularized
            programs; requires equal barrier counts across threads).
        plane: optional :class:`repro.mutate.FaultPlane` arming named
            fault points (see below); ``None`` (the default) leaves every
            machine exactly model-compliant — no extra RNG draws, no
            behavioural change, byte-identical executions.

    Fault points (consulted only when a plane arms them):

    * ``tso.sb_reorder`` — the TSO store buffer drains a younger entry
      ahead of the oldest (non-FIFO drain).
    * ``fence.drop`` — a barrier retires without its ordering effect:
      the TSO machine stops waiting for the store buffer to drain, the
      weak machine lets pending accesses complete across the barrier.
    * ``mem.stale_read`` — a load that misses the store buffer returns
      the *previous* write to its address instead of the newest one
      (stale coherence read).
    * ``weak.window_escape`` — the weak machine's reorder window stops
      enforcing per-location coherence: a younger same-address access
      may complete before an older pending one.
    * ``tso.sb_forward_alias`` — the store-to-load forwarding CAM
      matches on the cache-line tag instead of the full address and
      forwards a same-line different-word store's value (wrong-value
      bypass; needs a layout with ``words_per_line > 1`` to have
      opportunities).
    """

    def __init__(self, program: TestProgram, model: MemoryModel = None,
                 platform: Platform = None, *, seed: int = 0,
                 instrumentation: str = None, codec=None,
                 layout: MemoryLayout = None, uniform_random: bool = False,
                 os_model: OSModel = None, sync_barriers: bool = False,
                 latency: LatencyConfig = None, tuning: Tuning = DEFAULT_TUNING,
                 plane=None):
        if platform is None:
            platform = platform_for_isa("x86" if (model and model.name == "tso") else "arm")
        self.program = program
        self.platform = platform
        self.model = model if model is not None else platform.memory_model
        if self.model.name not in ("sc", "tso", "weak"):
            raise ExecutionError("unsupported memory model %r" % self.model.name)
        if instrumentation not in (None, "signature", "flush"):
            raise ExecutionError("unknown instrumentation mode %r" % (instrumentation,))
        if instrumentation == "signature" and codec is None:
            raise ExecutionError("signature instrumentation requires a codec")
        self.instrumentation = instrumentation
        self.codec = codec
        self.rng = random.Random(seed)
        self.uniform_random = uniform_random
        self.os_model = os_model
        self.sync_barriers = sync_barriers
        self.tuning = tuning
        self.plane = plane
        if plane is not None:
            plane.reseed(seed)
        if layout is None:
            layout = MemoryLayout(program.num_addresses, 1)
        if layout.num_words < program.num_addresses:
            raise ExecutionError("layout covers %d words; the program uses %d "
                                 "addresses" % (layout.num_words, program.num_addresses))
        self._layout = layout
        if uniform_random:
            self.contention = UniformModel()
        else:
            self.contention = ContentionModel(
                layout, self.rng, latency or platform.latency,
                core_speed=platform.thread_speeds(program.num_threads))
        # each thread's ops, compiled once into flat (kind, addr, uid) tuples
        self._flat_ops = [
            [(op.kind, op.addr, op.uid) for op in tp.ops]
            for tp in program.threads]
        self._lens = [len(ops) for ops in self._flat_ops]
        # per-load-site branch predictor state: last observed candidate index
        self._predictor: dict[int, int] = {}
        # per-load candidate index by source, indexed by load uid
        self._cand_index: list[dict] = [{}] * program.num_ops
        self._chain_len: dict[int, int] = {}
        if codec is not None:
            for table in codec.tables:
                for slot in table.slots:
                    self._chain_len[slot.uid] = len(slot.candidates)
                    self._cand_index[slot.uid] = {
                        src: i for i, src in enumerate(slot.candidates)}

    # -- public API -------------------------------------------------------------

    def reseed(self, seed: int) -> None:
        """Reset the RNG stream and cross-iteration predictor state.

        All other mutable state (contention line ownership, store
        buffers, windows) is rebuilt per iteration, so after a reseed
        the executor behaves exactly like a freshly constructed one —
        the property the fleet's seed-block scheme relies on.
        """
        self.rng.seed(seed)
        self._predictor.clear()
        if self.plane is not None:
            self.plane.reseed(seed)

    def run_one(self) -> Execution:
        """Execute one iteration of the test."""
        if self.model.name == "tso":
            execution = self._run_tso()
        elif self.model.name == "weak":
            execution = self._run_weak()
        else:
            execution = self._run_sc()
        obs = get_obs()
        if obs.enabled:
            _record_execution_metrics(obs, "sim.executor", execution)
        return execution

    def run(self, iterations: int):
        """Yield :class:`Execution` results for ``iterations`` runs."""
        for _ in range(iterations):
            yield self.run_one()

    # -- shared helpers -----------------------------------------------------------

    def _fresh_state(self):
        """Per-iteration machine state: memory, ws, rf, clocks, instrument
        clocks, pcs and counters."""
        self.contention.reset()
        rng = self.rng
        n = self.program.num_threads
        clocks = [rng.random() * self.tuning.start_skew for _ in range(n)]
        num_addresses = self.program.num_addresses
        return ([INIT] * num_addresses, {addr: [] for addr in range(num_addresses)},
                {}, clocks, [0.0] * n, [0] * n, ExecutionCounters())

    def _hooks(self):
        """Bound per-access callables: load and store latency, the load
        instrumentation, the OS model and the uniform thread pick (the
        last three None when not in use)."""
        lat = self.contention
        return (lat.load_latency, lat.store_latency,
                self._instrument_load if self.instrumentation else None,
                self.os_model, self.rng.choice if self.uniform_random else None)

    def _instrument_load(self, t: int, load_uid: int, source,
                         counters: ExecutionCounters) -> float:
        """Cost charged for thread ``t``'s load observability code.

        The loops call this only when an instrumentation mode is set.
        """
        if self.instrumentation == "flush":
            counters.extra_accesses += 1
            return self.contention.private_store_latency(t)
        index = self._cand_index[load_uid].get(source)
        if index is None:
            # The observed source lies outside the load's candidate set:
            # the compare/branch chain falls through to its assertion
            # tail (paper Figure 4's "assert error") — only a machine
            # violating its MCM contract can get here.  Charge the full
            # chain plus the taken assert branch; the predictor state is
            # left alone (the iteration aborts into the error handler).
            counters.assert_errors += 1
            return (self._chain_len.get(load_uid, 0) + 1) * _BRANCH_COST \
                + _MISPREDICT_PENALTY
        predicted = self._predictor.get(load_uid, 0)
        cost = (index + 1) * _BRANCH_COST
        if index != predicted:
            cost += _MISPREDICT_PENALTY
            counters.branch_mispredicts += 1
        self._predictor[load_uid] = index
        return cost

    def _finish(self, counters: ExecutionCounters, accesses: int, base_clocks,
                instr_clocks) -> None:
        """Charge end-of-run signature stores and close the accounting.

        Instrumentation cycles are the critical-path overhead: the
        slowest thread's base plus instrument clocks, less the base.
        """
        counters.test_accesses = accesses
        if self.instrumentation == "signature":
            for tid, table in enumerate(self.codec.tables):
                for _ in range(table.num_words):
                    cost = self.contention.private_store_latency(tid)
                    instr_clocks[tid] += cost
                    counters.extra_accesses += 1
        base = max(base_clocks) if base_clocks else 0.0
        total = max(b + i for b, i in zip(base_clocks, instr_clocks)) if base_clocks else 0.0
        counters.base_cycles = base
        counters.instrumentation_cycles = max(0.0, total - base)

    @staticmethod
    def _live(pcs, lens, buffers, waiting) -> list[int]:
        """Threads with work left and not parked at a rendezvous, in index order.

        The loops keep this list across steps and rebuild it only when a
        thread parks or is released; a finished thread is removed in
        place.  Index order keeps earliest-clock ties (lowest index) and
        ``rng.choice`` draws exactly as a per-step rebuild would.
        """
        return [t for t in range(len(pcs))
                if t not in waiting and (pcs[t] < lens[t] or buffers[t])]

    # -- fault-point helpers (consulted only when a plane arms them) -------------

    def _alias_forward(self, sb, addr: int, plane):
        """``tso.sb_forward_alias``: forward a same-line, different-word
        buffered store to a load that missed the buffer.

        Models a forwarding CAM that compares line tags instead of full
        addresses — the load receives another word's value, which can
        never be in its candidate set, so the instrumented compare/branch
        chain's assertion tail catches it (the "assert error" detection
        channel).
        """
        line_of = self._layout.line_of
        line = line_of(addr)
        for entry_addr, uid in reversed(sb):
            if entry_addr != addr and line_of(entry_addr) == line:
                if plane.fires("tso.sb_forward_alias"):
                    return uid
                return None
        return None

    def _stale_read(self, chain, newest, plane):
        """``mem.stale_read``: return the previous write to the address.

        Models a core reading a stale cached copy after losing an
        invalidation: the returned value is the one the address held
        *before* its newest store (INIT when only one store reached
        memory).  No opportunity is counted while the address is still
        at INIT — there is nothing stale to read.
        """
        if not chain:
            return newest
        if not plane.fires("mem.stale_read"):
            return newest
        return chain[-2] if len(chain) >= 2 else INIT

    # -- TSO machine ---------------------------------------------------------------

    def _run_tso(self) -> Execution:
        memory, ws, rf, clocks, instr_clocks, pcs, counters = self._fresh_state()
        load_latency, store_latency, instrument, os_model, choice = self._hooks()
        threads, lens, n = self._flat_ops, self._lens, len(self._flat_ops)
        random, clock_of, accesses = self.rng.random, clocks.__getitem__, 0
        arrived, sync = [0] * n, self.sync_barriers
        waiting: set[int] = set()
        sbs: list[list] = [[] for _ in threads]   # entries: (addr, uid)
        window, drain_prob = self.platform.window_size, self.tuning.drain_prob
        plane = self.plane
        armed = plane.arms if plane is not None else lambda point: False
        fence_drop = armed("fence.drop")
        sb_reorder = armed("tso.sb_reorder")
        alias = armed("tso.sb_forward_alias")
        stale_read = armed("mem.stale_read")
        live = self._live(pcs, lens, sbs, waiting)

        while live or waiting:
            if not live:   # every remaining thread waits at the final barrier
                waiting.clear()
                live = self._live(pcs, lens, sbs, waiting)
                continue
            t = choice(live) if choice else (
                clocks.index(min(clocks)) if len(live) == n
                else min(live, key=clock_of))
            pc, sb = pcs[t], sbs[t]

            if pc < lens[t]:
                kind, addr, uid = threads[t][pc]
                if kind is _BARRIER:
                    if not sb or (fence_drop and plane.fires("fence.drop")):
                        # fence.drop: the barrier retires with stores still
                        # buffered — its store->load ordering effect is lost
                        pcs[t] = pc + 1
                        clocks[t] += 1.0
                        if sync:
                            live = self._arrive(t, arrived, pcs, lens, sbs,
                                                waiting, clocks)
                        elif pc + 1 == lens[t] and not sb:
                            live.remove(t)
                        continue
                elif not sb or (len(sb) < window and random() >= drain_prob):
                    pcs[t] = pc + 1
                    accesses += 1
                    if kind is _STORE:
                        sb.append((addr, uid))
                        latency = 1.0 + random()
                    else:
                        source = None
                        for entry_addr, entry_uid in reversed(sb):
                            if entry_addr == addr:
                                source = entry_uid
                                break
                        if source is None and alias:
                            source = self._alias_forward(sb, addr, plane)
                        if source is not None:
                            latency = 2.0 + random()     # store-to-load forwarding
                        else:
                            source = memory[addr]
                            if stale_read:
                                source = self._stale_read(ws[addr], source, plane)
                            latency = load_latency(t, addr)
                        rf[uid] = source
                        if instrument is not None:
                            instr_clocks[t] += instrument(t, uid, source, counters)
                    if os_model is not None:
                        latency += os_model.perturb(latency)
                    clocks[t] += latency
                    if pc + 1 == lens[t] and not sb:
                        live.remove(t)
                    continue

            # drain the oldest buffered store to memory
            if sb_reorder and len(sb) > 1 and plane.fires("tso.sb_reorder"):
                # non-FIFO drain: a younger buffered store reaches
                # memory ahead of the oldest one
                addr, uid = sb.pop(1 + plane.pick_index(len(sb) - 1))
            else:
                addr, uid = sb.pop(0)
            memory[addr] = uid
            ws[addr].append(uid)
            latency = store_latency(t, addr)
            if os_model is not None:
                latency += os_model.perturb(latency)
            clocks[t] += latency
            if pc == lens[t] and not sb:
                live.remove(t)

        self._finish(counters, accesses, clocks, instr_clocks)
        return Execution(rf, ws, counters)

    # -- weak-ordering machine --------------------------------------------------------

    def _run_weak(self) -> Execution:
        memory, ws, rf, clocks, instr_clocks, pcs, counters = self._fresh_state()
        load_latency, store_latency, instrument, os_model, choice = self._hooks()
        threads, lens, n = self._flat_ops, self._lens, len(self._flat_ops)
        random, clock_of, accesses = self.rng.random, clocks.__getitem__, 0
        arrived, sync = [0] * n, self.sync_barriers
        waiting: set[int] = set()
        windows: list[list] = [[] for _ in threads]
        capacity, fetch_prob, bias = (self.platform.window_size,
                                      self.tuning.fetch_prob, self.tuning.in_order_bias)
        plane = self.plane
        armed = plane.arms if plane is not None else lambda point: False
        mutate_window = armed("weak.window_escape") or armed("fence.drop")
        stale_read = armed("mem.stale_read")
        live = self._live(pcs, lens, windows, waiting)

        while live or waiting:
            if not live:   # every remaining thread waits at the final barrier
                waiting.clear()
                live = self._live(pcs, lens, windows, waiting)
                continue
            t = choice(live) if choice else (
                clocks.index(min(clocks)) if len(live) == n
                else min(live, key=clock_of))
            pc, win = pcs[t], windows[t]

            # Window faults need the full eligible list on every step,
            # fetch steps included, so their trigger draws stay in place.
            eligible = None
            if mutate_window and win:
                eligible = self._mutated_eligible(
                    win, self._eligible_entries(win), plane)
            if pc < lens[t] and len(win) < capacity \
                    and (not win or random() < fetch_prob):
                win.append(threads[t][pc])
                pcs[t] = pc + 1
                clocks[t] += _FETCH_COST
                continue
            if not win:
                # An empty window with pending pc always allows a fetch
                # unless the window has no capacity at all.
                raise ExecutionError("weak machine wedged on thread %d" % t)

            # Pick the entry to complete, biased towards the oldest (an
            # out-of-order core mostly commits in order but lets a younger
            # ready access slip ahead): every eligible entry but the last
            # costs one draw, and the first success stops the pick.  The
            # lazy scan applies _eligible_entries' rules as it goes and
            # draws for an entry once a younger eligible one shows up.
            if eligible is None:
                idx = None
                seen = set()
                for i, (kind, addr, _) in enumerate(win):
                    if kind is _BARRIER:
                        if i == 0:
                            idx = 0
                        break
                    if addr in seen:
                        continue
                    if idx is not None and random() < bias:
                        break
                    idx = i
                    seen.add(addr)
            else:
                for idx in eligible[:-1]:
                    if random() < bias:
                        break
                else:
                    idx = eligible[-1]

            kind, addr, uid = win.pop(idx)
            if kind is _BARRIER:
                clocks[t] += 1.0
                if sync:
                    live = self._arrive(t, arrived, pcs, lens, windows,
                                        waiting, clocks)
                elif not win and pc == lens[t]:
                    live.remove(t)
                continue
            accesses += 1
            if kind is _STORE:
                memory[addr] = uid
                ws[addr].append(uid)
                latency = store_latency(t, addr)
            else:
                source = memory[addr]
                if stale_read:
                    source = self._stale_read(ws[addr], source, plane)
                rf[uid] = source
                latency = load_latency(t, addr)
                if instrument is not None:
                    instr_clocks[t] += instrument(t, uid, source, counters)
            if os_model is not None:
                latency += os_model.perturb(latency)
            clocks[t] += latency
            if not win and pc == lens[t]:
                live.remove(t)

        self._finish(counters, accesses, clocks, instr_clocks)
        return Execution(rf, ws, counters)

    def _mutated_eligible(self, window: list, eligible: list[int],
                          plane) -> list[int]:
        """Apply window-ordering faults to one eligibility decision.

        * ``weak.window_escape`` — per-location coherence blocking is
          ignored: younger same-address entries become eligible ahead of
          older pending ones.
        * ``fence.drop`` — pending barriers neither block younger
          entries nor wait to become oldest.

        Triggers are consulted once per decision, and only when the
        fault would newly unblock at least one entry (a fault with no
        observable consequence is not an opportunity).  When the fault
        fires, *only* the newly-unblocked entries are returned — the
        machine misbehaves now, rather than merely being allowed to
        (the oldest-first completion bias would otherwise mask the
        fault almost every time).
        """
        for point, drop_fences in (("weak.window_escape", False),
                                   ("fence.drop", True)):
            if not plane.arms(point):
                continue
            allowed = set(eligible)
            added = [i for i in self._eligible_entries(
                         window, coherence=drop_fences, fences=not drop_fences)
                     if i not in allowed]
            if added and plane.fires(point):
                return added
        return eligible

    @staticmethod
    def _eligible_entries(window: list, coherence: bool = True,
                          fences: bool = True) -> list[int]:
        """Window indices whose operations may complete now (fault path).

        With both rules enforced (the default) an operation is blocked
        by any older pending same-address access (per-location
        coherence) and by any older pending barrier, and a barrier may
        only complete once it is the oldest pending entry — the lazy
        scan in :meth:`_run_weak` applies the same rules.  Lifting
        ``coherence`` gives ``weak.window_escape``'s eligibility;
        lifting ``fences`` makes barriers transparent and completable
        anywhere (``fence.drop``).
        """
        eligible = []
        seen_addrs: set = set()
        for i, (kind, addr, _) in enumerate(window):
            if kind is _BARRIER:
                if not fences:
                    eligible.append(i)
                    continue
                if i == 0:
                    eligible.append(0)
                break
            if not coherence:
                eligible.append(i)
            elif addr not in seen_addrs:
                eligible.append(i)
                seen_addrs.add(addr)
        return eligible

    # -- SC machine -------------------------------------------------------------------

    def _run_sc(self) -> Execution:
        memory, ws, rf, clocks, instr_clocks, pcs, counters = self._fresh_state()
        load_latency, store_latency, instrument, os_model, choice = self._hooks()
        threads, lens, n = self._flat_ops, self._lens, len(self._flat_ops)
        clock_of, accesses = clocks.__getitem__, 0
        arrived, sync = [0] * n, self.sync_barriers
        waiting: set[int] = set()
        no_buffers = [()] * n
        plane = self.plane
        stale_read = plane is not None and plane.arms("mem.stale_read")
        live = self._live(pcs, lens, no_buffers, waiting)

        while live or waiting:
            if not live:   # every remaining thread waits at the final barrier
                waiting.clear()
                live = self._live(pcs, lens, no_buffers, waiting)
                continue
            t = choice(live) if choice else (
                clocks.index(min(clocks)) if len(live) == n
                else min(live, key=clock_of))
            pc = pcs[t]
            kind, addr, uid = threads[t][pc]
            pcs[t] = pc + 1
            if kind is _BARRIER:
                clocks[t] += 1.0
                if sync:
                    live = self._arrive(t, arrived, pcs, lens, no_buffers,
                                        waiting, clocks)
                elif pc + 1 == lens[t]:
                    live.remove(t)
                continue
            accesses += 1
            if kind is _STORE:
                memory[addr] = uid
                ws[addr].append(uid)
                latency = store_latency(t, addr)
            else:
                source = memory[addr]
                if stale_read:
                    source = self._stale_read(ws[addr], source, plane)
                rf[uid] = source
                latency = load_latency(t, addr)
                if instrument is not None:
                    instr_clocks[t] += instrument(t, uid, source, counters)
            if os_model is not None:
                latency += os_model.perturb(latency)
            clocks[t] += latency
            if pc + 1 == lens[t]:
                live.remove(t)

        self._finish(counters, accesses, clocks, instr_clocks)
        return Execution(rf, ws, counters)

    # -- rendezvous -------------------------------------------------------------------

    def _arrive(self, t, arrived, pcs, lens, buffers, waiting, clocks) -> list[int]:
        """Park thread ``t`` at a global barrier; return the new live list.

        Waiters are released once every unfinished thread caught up.  A
        thread that already ran past its last barrier (or finished) never
        holds others back.  Requires aligned barrier counts for meaningful
        epoch semantics (as produced by :func:`repro.instrument.regularize`).
        """
        arrived[t] += 1
        waiting.add(t)
        lagging = min(
            (arrived[u] for u in range(len(pcs))
             if u not in waiting and pcs[u] < lens[u]),
            default=None)
        target = min(arrived[u] for u in waiting)
        if lagging is None or lagging >= target:
            release_time = max(clocks[u] for u in waiting)
            for u in list(waiting):
                waiting.discard(u)
                clocks[u] = max(clocks[u], release_time) \
                    + self.rng.random() * self.tuning.start_skew
        return self._live(pcs, lens, buffers, waiting)
