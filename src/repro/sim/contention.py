"""Cache-line contention and latency model for the fast executor.

Real multi-core chips derive their memory-access non-determinism from
variable access latency: hits are fast, misses slow, and stores to lines
held elsewhere pay invalidation round-trips (paper Section 2).  This
model tracks, per cache line, an owner core and a sharer set — a
deliberately small MSI-flavoured abstraction — and returns a latency per
access with random jitter.  Because the layout maps multiple shared words
to one line when ``words_per_line > 1``, false sharing automatically
raises contention and thus interleaving diversity (paper Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.layout import MemoryLayout


@dataclass(frozen=True)
class LatencyConfig:
    """Latency parameters, in cycles, for the contention model."""

    l1_hit: float = 2.0
    shared_hit: float = 14.0       # line valid but owned elsewhere (L2 / snoop)
    miss: float = 40.0             # first touch / coherence miss
    invalidation: float = 28.0     # upgrade requiring remote invalidations
    store_buffer_push: float = 1.0
    #: relative latency jitter: each access takes up to ``jitter`` times
    #: longer, uniformly.  Slow (contended) accesses therefore contribute
    #: proportionally more timing noise, which is how false sharing
    #: diversifies interleavings on silicon (paper Figure 8).
    jitter: float = 0.08
    private_store: float = 3.0     # store to a non-shared (log/signature) line
    #: probability of a rare long stall per access (DRAM refresh, TLB walk,
    #: arbitration conflict) — the dominant source of run-to-run timing
    #: divergence on real silicon once caches are warm
    hiccup_prob: float = 0.001
    hiccup_cycles: float = 60.0


class ContentionModel:
    """Per-line ownership state driving access latencies.

    Args:
        layout: word -> line mapping (false-sharing configuration).
        rng: random source for latency jitter.
        config: latency parameters.
        core_speed: optional per-core latency multiplier (ARM big.LITTLE
            little cores are modelled as uniformly slower).
    """

    def __init__(self, layout: MemoryLayout, rng, config: LatencyConfig = LatencyConfig(),
                 core_speed=None):
        self.layout = layout
        self.rng = rng
        self.config = config
        self.core_speed = core_speed or {}
        # the executors call the access methods once per test access:
        # resolve the word->line map once, up front
        self._line = [layout.line_of(addr) for addr in range(layout.num_words)]
        self._random = rng.random
        self.reset()

    def reset(self) -> None:
        """Forget all line state (hard reset between test runs)."""
        lines = self.layout.num_lines
        self._owner: list = [None] * lines
        self._sharers: list[set[int]] = [set() for _ in range(lines)]

    def _scaled(self, core: int, latency: float) -> float:
        cfg = self.config
        random = self._random
        extra = random() * cfg.jitter * latency
        if cfg.hiccup_prob and random() < cfg.hiccup_prob:
            extra += cfg.hiccup_cycles * (0.5 + random())
        return (latency + extra) * self.core_speed.get(core, 1.0)

    def load_latency(self, core: int, addr: int) -> float:
        """Latency of a load by ``core`` from shared word ``addr``."""
        line = self._line[addr]
        sharers = self._sharers[line]
        if core in sharers:
            latency = self.config.l1_hit
        elif sharers or self._owner[line] is not None:
            latency = self.config.shared_hit
        else:
            latency = self.config.miss
        sharers.add(core)
        return self._scaled(core, latency)

    def store_latency(self, core: int, addr: int) -> float:
        """Latency of a store by ``core`` becoming globally visible."""
        line = self._line[addr]
        sharers = self._sharers[line]
        owner = self._owner[line]
        others = len(sharers) - (core in sharers)   # sharers other than core
        if owner == core and not others:
            latency = self.config.l1_hit
        elif others:
            latency = self.config.invalidation
        elif owner is None and not sharers:
            latency = self.config.miss
        else:
            latency = self.config.shared_hit
        self._owner[line] = core
        sharers.clear()
        sharers.add(core)
        return self._scaled(core, latency)

    def private_store_latency(self, core: int) -> float:
        """Latency of a store to a core-private region (logs, signatures)."""
        return self._scaled(core, self.config.private_store)


class UniformModel:
    """Degenerate latency model: every access costs one unit, no state.

    Used by the uniform-random SC mode backing the paper's k-medoids
    limit study (Section 4.1), where operations are selected "in a
    uniformly random fashion, one at a time".
    """

    def reset(self) -> None:
        pass

    def load_latency(self, core: int, addr: int) -> float:
        return 1.0

    def store_latency(self, core: int, addr: int) -> float:
        return 1.0

    def private_store_latency(self, core: int) -> float:
        return 1.0
