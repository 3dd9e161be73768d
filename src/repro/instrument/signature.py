"""Execution signatures: encoding, decoding, layout and ordering.

An *execution signature* is the concatenation of all per-thread
signatures (paper Section 4.1): thread 0's words are placed in the most
significant position, and within a thread the first word is most
significant.  Sorting signatures in this layout places executions with
similar reads-from patterns next to each other, which is what the
collective checker exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InstrumentationError, SignatureError
from repro.isa.program import TestProgram
from repro.instrument.static_analysis import candidate_sources
from repro.instrument.weights import ThreadWeightTable, build_weight_tables
from repro.obs import get_obs

#: widest signature register a codec accepts, in bits (the paper's
#: systems use 32 and 64; 512 is a vector register)
MAX_REGISTER_WIDTH = 512


@dataclass(frozen=True, order=True)
class Signature:
    """One execution's memory-access interleaving signature.

    ``words`` holds per-thread word tuples.  The natural ordering of this
    dataclass is exactly the paper's signature order: lexicographic with
    thread 0 most significant (all signatures of one test share the same
    static word structure, so tuple comparison is well defined).
    """

    words: tuple[tuple[int, ...], ...]

    @property
    def flat(self) -> tuple[int, ...]:
        """All words concatenated, most significant first."""
        return tuple(w for thread_words in self.words for w in thread_words)

    def interleaved_key(self) -> tuple[int, ...]:
        """Alternative sort layout for the Section 4.1 sensitivity study.

        Interleaves words round-robin across threads ("placing signature
        words from related code sections in different threads near each
        other"); the paper found this layout yields *worse* similarity
        between adjacent constraint graphs.
        """
        longest = max((len(tw) for tw in self.words), default=0)
        key = []
        for i in range(longest):
            for thread_words in self.words:
                if i < len(thread_words):
                    key.append(thread_words[i])
        return tuple(key)

    def __str__(self):
        return "|".join(",".join("0x%x" % w for w in tw) for tw in self.words)


class SignatureCodec:
    """Encode executions to signatures and decode them back (Algorithm 1).

    Built once per test program at instrumentation time; holds the
    ``multipliers`` and ``store_maps`` tables for every thread.

    Args:
        program: the test program under instrumentation.
        register_width: signature register width in bits (64 on the x86
            system, 32 on the ARM system; paper Section 3.2), at most
            :data:`MAX_REGISTER_WIDTH`.  Every width from outside the
            process (dumps, serve hellos, worker hand-offs) reaches the
            codec, so this is where it is checked.

    Raises:
        InstrumentationError: for a width that is not an integer in
            ``1..MAX_REGISTER_WIDTH``.
    """

    def __init__(self, program: TestProgram, register_width: int = 64):
        if (type(register_width) is not int
                or not 0 < register_width <= MAX_REGISTER_WIDTH):
            raise InstrumentationError(
                "signature register width must be an integer in 1..%d, "
                "not %r" % (MAX_REGISTER_WIDTH, register_width))
        self.program = program
        self.register_width = register_width
        self.candidates = candidate_sources(program)
        self.tables: list[ThreadWeightTable] = build_weight_tables(
            program, register_width, self.candidates)
        obs = get_obs()
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("instrument.codec.builds").inc()
            metrics.gauge("instrument.codec.signature_bytes").set(self.byte_size)
            metrics.gauge("instrument.codec.signature_words").set(self.total_words)
            metrics.gauge("instrument.codec.cardinality_bits").set(
                self.cardinality.bit_length())

    # -- encode/decode ---------------------------------------------------------

    def encode(self, rf: dict[int, object]) -> Signature:
        """Encode a full execution's reads-from map into a signature."""
        return Signature(tuple(table.encode(rf) for table in self.tables))

    def decode(self, signature: Signature) -> dict[int, object]:
        """Decode a signature back into the execution's reads-from map."""
        if len(signature.words) != len(self.tables):
            raise SignatureError("signature has %d thread sections, test has %d threads"
                                 % (len(signature.words), len(self.tables)))
        rf: dict[int, object] = {}
        for table, words in zip(self.tables, signature.words):
            rf.update(table.decode(words))
        return rf

    def decode_delta(self, old: Signature, new: Signature) -> list:
        """Decode only the loads whose reads-from choice differs.

        The incremental form of Algorithm 1 the delta checking pipeline
        is built on: given two signatures of the *same* test, returns
        ``[(load_uid, old_source, new_source), ...]`` for exactly the
        loads whose mixed-radix digit changed.  Unchanged signature words
        are skipped by integer comparison and changed words are peeled
        most-significant-digit-first with early exit, so the cost is
        O(changed digits) rather than O(loads) — for adjacent *sorted*
        signatures usually a handful of entries.
        """
        if len(old.words) != len(self.tables) or len(new.words) != len(self.tables):
            raise SignatureError(
                "signature has %d/%d thread sections, test has %d threads"
                % (len(old.words), len(new.words), len(self.tables)))
        changes: list = []
        for table, old_words, new_words in zip(self.tables, old.words, new.words):
            if old_words == new_words:
                continue
            if len(old_words) != len(new_words):
                raise SignatureError(
                    "thread %d signatures have %d vs %d words"
                    % (table.thread, len(old_words), len(new_words)))
            for word_index, (ow, nw) in enumerate(zip(old_words, new_words)):
                if ow != nw:
                    changes.extend(table.word_changes(word_index, ow, nw))
        return changes

    # -- statistics -------------------------------------------------------------

    @property
    def byte_size(self) -> int:
        """Execution signature size in bytes (in-bar numbers of Figure 11)."""
        return sum(table.byte_size for table in self.tables)

    @property
    def total_words(self) -> int:
        """Total signature words across threads (memory stores per run)."""
        return sum(table.num_words for table in self.tables)

    @property
    def cardinality(self) -> int:
        """Exact number of distinct signatures this test can produce."""
        total = 1
        for table in self.tables:
            total *= table.cardinality
        return total
