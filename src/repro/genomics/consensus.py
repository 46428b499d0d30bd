"""Consensus calling (tertiary analysis for re-sequencing).

Overlapping alignments of one sample are reduced to a single consensus
sequence per chromosome (paper Figure 6). Two implementations mirror the
two query shapes of Section 4.2.3:

- :class:`Pileup` — the *conceptually clean* path: pivot every aligned
  base into per-position observation lists, then call each position.
  Its memory is O(chromosome length × coverage): the "large intermediate
  result" the paper found impractical;
- :class:`SlidingWindowConsensus` — the optimised path: consume
  alignments ordered by start position and keep only the window of
  positions that can still receive observations, emitting called bases
  as the window slides. O(read length) state — what the
  ``AssembleConsensus`` UDA runs internally. An open position holds the
  summed score of its first-seen base, and a sparse table holds any
  other base's: nothing is stored per observation, a read that agrees
  with the window votes with one slice operation, and only a position
  that saw two bases is ranked when it is called.

Base calling is quality-weighted: each observation votes with its Phred
score, the winning base's consensus quality is the margin over the
runner-up (a simplification of MAQ's Bayesian model that preserves its
monotonicity in the inputs). :func:`rank_votes` is the one place that
rule lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine.errors import EngineError

#: base emitted for uncovered positions
NO_CALL = "N"

#: cap for consensus quality values
MAX_CONSENSUS_QUALITY = 93

#: closed window positions are called and emitted this many at a time
_BLOCK = 256


class ConsensusError(EngineError):
    pass


def rank_votes(votes: Dict[str, int]) -> Tuple[str, int]:
    """Call one position from its summed votes, ``{base: score}`` with
    every score >= 0 and no ``NO_CALL`` entry.

    The highest score wins, a tie goes to the smaller base letter, and
    the consensus quality is the winner's margin over the runner-up,
    capped at ``MAX_CONSENSUS_QUALITY``. No votes: ``('N', 0)``.
    """
    if not votes:
        return NO_CALL, 0
    ranked = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
    base, score = ranked[0]
    runner_up = ranked[1][1] if len(ranked) > 1 else 0
    return base, min(score - runner_up, MAX_CONSENSUS_QUALITY)


def call_base(observations: Sequence[Tuple[str, int]]) -> Tuple[str, int]:
    """Call one position from ``(base, quality)`` observations.

    Returns ``(base, consensus_quality)``; ``('N', 0)`` when there is no
    usable observation. 'N' observations are ignored (uncalled bases
    carry no evidence); a quality votes as ``max(int(quality), 0)``.
    """
    votes: Dict[str, int] = {}
    for base, quality in observations:
        if base == NO_CALL:
            continue
        votes[base] = votes.get(base, 0) + max(int(quality), 0)
    return rank_votes(votes)


@dataclass
class ConsensusResult:
    """Consensus for one chromosome plus coverage accounting."""

    chromosome: str
    sequence: str
    qualities: List[int]
    covered_positions: int
    total_observations: int
    #: genome position of ``sequence[0]`` (nonzero in unbounded mode)
    start: int = 0


# ---------------------------------------------------------------------------
# pivot-based pileup (the blocking, large-intermediate path)
# ---------------------------------------------------------------------------


class Pileup:
    """Materialised per-position observations for one chromosome."""

    def __init__(self, chromosome: str, length: int):
        if length < 0:
            raise ConsensusError(f"negative chromosome length {length}")
        self.chromosome = chromosome
        self.length = length
        self._positions: Dict[int, List[Tuple[str, int]]] = {}
        self.total_observations = 0

    def add_alignment(
        self, position: int, sequence: str, qualities: Sequence[int]
    ) -> None:
        """Pivot one alignment into its per-position observations
        (what the ``PivotAlignment`` TVF emits)."""
        if len(sequence) != len(qualities):
            raise ConsensusError("sequence/quality length mismatch")
        for offset, (base, quality) in enumerate(zip(sequence, qualities)):
            pos = position + offset
            if pos < 0 or pos >= self.length:
                continue
            self._positions.setdefault(pos, []).append((base, quality))
            self.total_observations += 1

    def observation_count(self) -> int:
        """Size of the pivoted intermediate (rows the pivot plan writes)."""
        return self.total_observations

    def call(self) -> ConsensusResult:
        bases: List[str] = []
        qualities: List[int] = []
        covered = 0
        for pos in range(self.length):
            observations = self._positions.get(pos)
            if observations:
                base, quality = call_base(observations)
                covered += 1
            else:
                base, quality = NO_CALL, 0
            bases.append(base)
            qualities.append(quality)
        return ConsensusResult(
            chromosome=self.chromosome,
            sequence="".join(bases),
            qualities=qualities,
            covered_positions=covered,
            total_observations=self.total_observations,
        )


# ---------------------------------------------------------------------------
# sliding-window consensus (the streaming path)
# ---------------------------------------------------------------------------


class SlidingWindowConsensus:
    """Streaming consensus over alignments ordered by start position.

    Feed alignments with monotonically non-decreasing ``position``; the
    window keeps the positions that a future alignment could still
    touch, and the closed ones below them until ``_BLOCK`` of those can
    be emitted at once. Peak state is O(max read length + ``_BLOCK``).
    """

    def __init__(self, chromosome: str, length: Optional[int] = None):
        """``length=None`` runs in *unbounded* mode: the consensus starts
        at the first alignment's position and ends at the last covered
        position — the mode the ``AssembleConsensus`` UDA uses, since an
        aggregate does not know the chromosome length."""
        self.chromosome = chromosome
        self.length = length
        #: the window's positions, from ``_window_start`` up: each one's
        #: first-seen base and that base's summed score. A position is
        #: opened by the alignment that first covers it, so none is empty
        self._first = ""
        self._scores: List[int] = []
        #: ``{position: {base: score}}`` of every other base seen at a
        #: window position (most positions of a real lane have none);
        #: ``NO_CALL`` counts as coverage and is dropped before ranking
        self._others: Dict[int, Dict[str, int]] = {}
        self._window_start = 0 if length is not None else None
        self.start_position: Optional[int] = 0 if length is not None else None
        self._bases: List[str] = []
        self._qualities: List[int] = []
        self._covered = 0
        self.total_observations = 0
        self._last_position: Optional[int] = None
        #: the most positions open at once (closed ones awaiting emission
        #: are not counted)
        self.peak_window = 0

    def add_alignment(
        self, position: int, sequence: str, qualities: Sequence[int]
    ) -> None:
        """Vote ``sequence`` into the window at ``position``. A quality
        votes as ``max(int(quality), 0)``; ``bytes`` are taken as they
        are. A rejected alignment leaves the window as it was."""
        last = self._last_position
        if last is not None and position < last:
            raise ConsensusError(
                "alignments must arrive ordered by start position "
                f"({position} after {last})"
            )
        size = len(sequence)
        if size != len(qualities):
            raise ConsensusError("sequence/quality length mismatch")
        if not isinstance(qualities, bytes):
            qualities = [max(int(quality), 0) for quality in qualities]
        self._last_position = position
        start = self._window_start
        if start is None:
            start = self._window_start = self.start_position = position
        first = self._first
        if position > start + len(first):
            # past the window's end: close all of it and the gap after it
            self._emit(len(first))
            limit = position if self.length is None else min(position, self.length)
            self._emit_gap(limit - self._window_start)
            start, first = self._window_start, ""
        elif position - start >= _BLOCK:
            # positions below ``position`` are final: emit them together
            self._emit(position - start)
            start, first = self._window_start, self._first
        # a bounded window may start after ``position`` (a read hanging
        # below 0, or a window already at ``length``)
        low = position if position > start else start
        end = position + size
        if self.length is not None and end > self.length:
            end = self.length
        count = end - low
        if count <= 0:
            return
        if count < size:  # clipped by an edge of a bounded window
            skip = low - position
            sequence = sequence[skip : skip + count]
            qualities = qualities[skip : skip + count]
        summed = self._scores
        offset = low - start
        overlap = len(first) - offset
        if overlap > count:
            overlap = count
        stop = offset + overlap
        # every score goes to the open position's first base; a read that
        # disagrees with the window somewhere (about one in nine of a
        # simulated lane) then moves its other bases' scores out
        summed[offset:stop] = map(add, summed[offset:stop], qualities)
        if sequence[:overlap] != first[offset:stop]:
            others = self._others
            for i, base, seen in zip(range(overlap), sequence, first[offset:]):
                if base != seen:
                    score = qualities[i]
                    summed[offset + i] -= score
                    votes = others.setdefault(low + i, {})
                    votes[base] = votes.get(base, 0) + score
        if count > overlap:
            self._first = first + sequence[overlap:]
            summed.extend(qualities[overlap:])
            if count > self.peak_window:
                self.peak_window = count
        self.total_observations += count

    def _emit(self, count: int) -> None:
        """Call and emit the first ``count`` window positions: one
        string slice for their bases, and :func:`rank_votes` only where a
        position saw a second base."""
        first, summed = self._first, self._scores
        start = self._window_start
        block = first[:count]
        qualities = list(map(min, summed[:count], repeat(MAX_CONSENSUS_QUALITY)))
        offset = block.find(NO_CALL)
        while offset >= 0:  # coverage without evidence
            qualities[offset] = 0
            offset = block.find(NO_CALL, offset + 1)
        others = self._others
        called = [p for p in others if p < start + count] if others else ()
        if called:
            bases = list(block)
            for position in called:
                votes = others.pop(position)
                offset = position - start
                votes[bases[offset]] = summed[offset]
                votes.pop(NO_CALL, None)
                bases[offset], qualities[offset] = rank_votes(votes)
            block = "".join(bases)
        self._bases.append(block)
        self._qualities.extend(qualities)
        self._first = first[count:]
        del summed[:count]
        self._covered += count
        self._window_start += count

    def _emit_gap(self, gap: int) -> None:
        """Emit ``gap`` uncovered positions past an empty window."""
        if gap > 0:
            self._bases.append(NO_CALL * gap)
            self._qualities.extend([0] * gap)
            self._window_start += gap

    def finish(self) -> ConsensusResult:
        """Flush the tail and produce the chromosome consensus."""
        if self._window_start is None:
            self._window_start = 0
            self.start_position = 0
        self._emit(len(self._first))
        if self.length is not None:
            self._emit_gap(self.length - self._window_start)
        return ConsensusResult(
            chromosome=self.chromosome,
            sequence="".join(self._bases),
            qualities=self._qualities,
            covered_positions=self._covered,
            total_observations=self.total_observations,
            start=self.start_position or 0,
        )


def consensus_by_chromosome(
    alignments: Iterable[Tuple[str, int, str, Sequence[int]]],
    lengths: Dict[str, int],
) -> Dict[str, ConsensusResult]:
    """Convenience driver: ``(chromosome, position, sequence, qualities)``
    tuples, ordered by (chromosome, position), → per-chromosome results."""
    results: Dict[str, ConsensusResult] = {}
    current: Optional[SlidingWindowConsensus] = None
    for chromosome, position, sequence, qualities in alignments:
        if current is None or current.chromosome != chromosome:
            if current is not None:
                results[current.chromosome] = current.finish()
            if chromosome not in lengths:
                raise ConsensusError(f"unknown chromosome {chromosome!r}")
            current = SlidingWindowConsensus(chromosome, lengths[chromosome])
        current.add_alignment(position, sequence, qualities)
    if current is not None:
        results[current.chromosome] = current.finish()
    return results
