"""Weight assignment and per-thread signature arithmetic (Section 3.1-3.2).

Each load's candidate list of size *n* receives the weights
``{0, m, 2m, ..., (n-1)m}`` where *m* is the running product of the
candidate counts of all earlier loads in the same signature word.  The
resulting per-word signature is a mixed-radix number: there is a 1:1
mapping between signature values and candidate-index tuples, so a
signature identifies the thread's observed reads-from choices exactly.

When the running product would exceed the register width (``2**width``),
the instrumentation statically starts a new signature word and resets the
multiplier (paper Section 3.2: "we add another register to store the
signature for the thread ... resetting the weight multipliers").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SignatureError
from repro.isa.program import TestProgram, ThreadProgram
from repro.instrument.static_analysis import candidate_sources


@dataclass(frozen=True)
class LoadSlot:
    """Static signature bookkeeping for one load (one row of Figure 3)."""

    uid: int              # load operation uid
    candidates: tuple     # candidate sources in canonical order
    multiplier: int       # weight step within its signature word
    word: int             # signature word index within the thread


class ThreadWeightTable:
    """The ``multipliers`` + ``store_maps`` tables for one thread.

    Args:
        thread_program: the thread to instrument.
        candidates: per-load candidate sources (from static analysis).
        register_width: signature register width in bits (32 or 64).
    """

    def __init__(self, thread_program: ThreadProgram, candidates: dict[int, list],
                 register_width: int):
        if register_width <= 0:
            raise ValueError("register_width must be positive")
        self.thread = thread_program.thread
        self.register_width = register_width
        self.slots: list[LoadSlot] = []
        limit = 1 << register_width
        word = 0
        product = 1
        for op in thread_program.ops:
            if not op.is_load:
                continue
            cands = tuple(candidates[op.uid])
            n = len(cands)
            if n > limit:
                raise SignatureError(
                    "load uid %d has %d candidates, which cannot be "
                    "represented in a %d-bit signature register"
                    % (op.uid, n, register_width))
            if product * n > limit:
                word += 1
                product = 1
            self.slots.append(LoadSlot(op.uid, cands, multiplier=product, word=word))
            product *= n
        self.num_words = word + 1 if self.slots else 1
        # Per-word peel tables for the incremental decoder: compact
        # (uid, multiplier, candidates) rows, most significant (largest
        # multiplier) first.  Single-candidate slots are dropped — their
        # digit is always 0, and the multiplier-based peel extracts any
        # lower slot's digit directly, so skipping them is exact.
        by_word: list[list[tuple]] = [[] for _ in range(self.num_words)]
        for slot in self.slots:
            if len(slot.candidates) > 1:
                by_word[slot.word].append(
                    (slot.uid, slot.multiplier, slot.candidates))
        self._word_peel_desc: tuple[tuple[tuple, ...], ...] = tuple(
            tuple(reversed(word_rows)) for word_rows in by_word)

    # -- encoding ------------------------------------------------------------

    def encode(self, rf: dict[int, object]) -> tuple[int, ...]:
        """Accumulate weights for the observed reads-from choices.

        Args:
            rf: map of load uid -> observed source (store uid or INIT).

        Returns:
            The per-thread signature as a tuple of ``num_words`` ints.
        """
        words = [0] * self.num_words
        for slot in self.slots:
            source = rf[slot.uid]
            try:
                index = slot.candidates.index(source)
            except ValueError:
                raise SignatureError(
                    "load uid %d observed source %r outside its candidate set "
                    "(program-order violation caught by the assertion tail)"
                    % (slot.uid, source)) from None
            words[slot.word] += index * slot.multiplier
        return tuple(words)

    # -- decoding (paper Algorithm 1) -----------------------------------------

    def decode(self, words: tuple[int, ...]) -> dict[int, object]:
        """Reconstruct reads-from choices from a per-thread signature.

        Walks loads from last to first, dividing by each load's weight
        multiplier (Algorithm 1), per signature word.
        """
        if len(words) != self.num_words:
            raise SignatureError("expected %d signature words, got %d"
                                 % (self.num_words, len(words)))
        remaining = list(words)
        rf: dict[int, object] = {}
        for slot in reversed(self.slots):
            value = remaining[slot.word]
            index = value // slot.multiplier
            if not 0 <= index < len(slot.candidates):
                raise SignatureError(
                    "signature word %d value %d out of range for load uid %d"
                    % (slot.word, words[slot.word], slot.uid))
            remaining[slot.word] = value % slot.multiplier
            rf[slot.uid] = slot.candidates[index]
        if any(remaining):
            raise SignatureError("signature has residue %r after decoding" % (remaining,))
        return rf

    # -- incremental decoding (delta pipeline) ----------------------------------

    def word_changes(self, word_index: int, old: int, new: int) -> list:
        """Return ``(uid, old_source, new_source)`` for digits that differ.

        The incremental counterpart of :meth:`decode` for one signature
        word: instead of reconstructing every load's choice, only the
        loads whose mixed-radix digit differs between ``old`` and ``new``
        are reported.  Digits are peeled most-significant-first; as soon
        as the two remainders coincide every remaining (less significant)
        digit is shared, so the walk stops — for adjacent *sorted*
        signatures, which share long digit prefixes, this touches only a
        handful of slots.
        """
        if word_index >= self.num_words:
            raise SignatureError("word index %d out of range (thread has %d words)"
                                 % (word_index, self.num_words))
        changes: list = []
        append = changes.append
        for uid, multiplier, candidates in self._word_peel_desc[word_index]:
            if old == new:
                return changes
            index_old, old = divmod(old, multiplier)
            index_new, new = divmod(new, multiplier)
            if index_old != index_new:
                if not (0 <= index_old < len(candidates)
                        and 0 <= index_new < len(candidates)):
                    raise SignatureError(
                        "signature word %d digit %d out of range for load uid %d"
                        % (word_index, max(index_old, index_new), uid))
                append((uid, candidates[index_old], candidates[index_new]))
        if old != new:
            raise SignatureError(
                "signature word %d has differing residues %r/%r after decoding"
                % (word_index, old, new))
        return changes

    # -- statistics ------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Number of distinct per-thread signatures (product of candidate counts)."""
        total = 1
        for slot in self.slots:
            total *= len(slot.candidates)
        return total

    @property
    def byte_size(self) -> int:
        """Static storage for this thread's signature, in bytes."""
        return self.num_words * self.register_width // 8


def build_weight_tables(program: TestProgram, register_width: int,
                        candidates: dict[int, list] | None = None
                        ) -> list[ThreadWeightTable]:
    """Build one weight table per thread of ``program``."""
    if candidates is None:
        candidates = candidate_sources(program)
    return [ThreadWeightTable(tp, candidates, register_width)
            for tp in program.threads]
