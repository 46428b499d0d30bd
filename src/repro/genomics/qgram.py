"""Q-gram indexing for in-database sequence search.

The paper's future work (Section 6.1) points at indexing as the key to
sequence search inside a DBMS, citing suffix-tree indexing of proteins
[7] and the BLAST-in-the-RDBMS studies [13][18]. This module provides
the classic *q-gram* index those systems build on:

- every length-``q`` substring of every indexed sequence is hashed to
  the (sequence id, offset) positions where it occurs;
- **exact substring search** looks up the pattern's first q-gram and
  verifies candidates;
- **approximate search** uses the q-gram counting lemma: a pattern of
  length ``m`` matching with at most ``k`` errors shares at least
  ``m - q + 1 - k*q`` q-grams with its occurrence, so candidates can be
  vote-counted and only plausible ones verified.

The :class:`~repro.core.wrappers` layer exposes this as the
``SearchShortReads`` TVF so SQL queries can do
``SELECT * FROM SearchShortReads('ACGTACGT', 1)``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..engine.errors import EngineError


class QGramError(EngineError):
    pass


@dataclass(frozen=True)
class SequenceMatch:
    """One verified occurrence of the pattern."""

    sequence_id: int
    position: int
    mismatches: int


class QGramIndex:
    """A q-gram index over a collection of (id, sequence) pairs."""

    def __init__(self, q: int = 8):
        if q < 2 or q > 32:
            raise QGramError(f"unreasonable q {q}")
        self.q = q
        self._sequences: Dict[int, str] = {}
        self._grams: Dict[str, List[Tuple[int, int]]] = defaultdict(list)

    # -- building -----------------------------------------------------------------

    def add(self, sequence_id: int, sequence: str) -> None:
        if sequence_id in self._sequences:
            raise QGramError(f"sequence id {sequence_id} already indexed")
        self._sequences[sequence_id] = sequence
        q = self.q
        grams = self._grams
        for i in range(len(sequence) - q + 1):
            grams[sequence[i : i + q]].append((sequence_id, i))

    def __len__(self) -> int:
        return len(self._sequences)

    def sequence(self, sequence_id: int) -> str:
        try:
            return self._sequences[sequence_id]
        except KeyError:
            raise QGramError(f"unknown sequence id {sequence_id}") from None

    # -- exact substring search ------------------------------------------------------

    def search_exact(self, pattern: str) -> Iterator[SequenceMatch]:
        """All occurrences of ``pattern`` as an exact substring."""
        if len(pattern) < self.q:
            # short patterns: scan the grams starting with the pattern is
            # wrong; fall back to scanning all sequences (documented cost)
            for sequence_id, sequence in self._sequences.items():
                start = sequence.find(pattern)
                while start >= 0:
                    yield SequenceMatch(sequence_id, start, 0)
                    start = sequence.find(pattern, start + 1)
            return
        anchor = pattern[: self.q]
        for sequence_id, offset in self._grams.get(anchor, ()):
            sequence = self._sequences[sequence_id]
            if sequence.startswith(pattern, offset):
                yield SequenceMatch(sequence_id, offset, 0)

    # -- approximate search -------------------------------------------------------------

    def search_approximate(
        self, pattern: str, max_mismatches: int
    ) -> Iterator[SequenceMatch]:
        """Occurrences with at most ``max_mismatches`` substitutions.

        Candidate generation uses the q-gram lemma threshold; every
        candidate window is verified by direct comparison, so results
        are exact for substitution-only matching.
        """
        if max_mismatches < 0:
            raise QGramError("max_mismatches must be >= 0")
        if max_mismatches == 0:
            yield from self.search_exact(pattern)
            return
        m, q = len(pattern), self.q
        threshold = m - q + 1 - max_mismatches * q
        if threshold < 1:
            # the lemma gives no pruning power; verify everywhere
            yield from self._scan_all(pattern, max_mismatches)
            return
        votes: Dict[Tuple[int, int], int] = defaultdict(int)
        for i in range(m - q + 1):
            gram = pattern[i : i + q]
            for sequence_id, offset in self._grams.get(gram, ()):
                start = offset - i
                if start >= 0:
                    votes[(sequence_id, start)] += 1
        seen = set()
        for (sequence_id, start), count in votes.items():
            if count < threshold or (sequence_id, start) in seen:
                continue
            seen.add((sequence_id, start))
            match = self._verify(sequence_id, start, pattern, max_mismatches)
            if match is not None:
                yield match

    def _verify(
        self, sequence_id: int, start: int, pattern: str, limit: int
    ) -> Optional[SequenceMatch]:
        sequence = self._sequences[sequence_id]
        if start < 0 or start + len(pattern) > len(sequence):
            return None
        mismatches = 0
        for a, b in zip(pattern, sequence[start : start + len(pattern)]):
            if a != b:
                mismatches += 1
                if mismatches > limit:
                    return None
        return SequenceMatch(sequence_id, start, mismatches)

    def _scan_all(
        self, pattern: str, limit: int
    ) -> Iterator[SequenceMatch]:
        for sequence_id, sequence in self._sequences.items():
            for start in range(len(sequence) - len(pattern) + 1):
                match = self._verify(sequence_id, start, pattern, limit)
                if match is not None:
                    yield match
