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
  ``AssembleConsensus`` UDA runs internally. An open position holds its
  summed votes per base, not its observations, so nothing is stored per
  observation and nothing is walked again when the position is called.

Base calling is quality-weighted: each observation votes with its Phred
score, the winning base's consensus quality is the margin over the
runner-up (a simplification of MAQ's Bayesian model that preserves its
monotonicity in the inputs). :func:`rank_votes` is the one place that
rule lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine.errors import EngineError

#: base emitted for uncovered positions
NO_CALL = "N"

#: cap for consensus quality values
MAX_CONSENSUS_QUALITY = 93


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

    @property
    def length(self) -> int:
        return len(self.sequence)

    @property
    def coverage_fraction(self) -> float:
        return self.covered_positions / self.length if self.length else 0.0


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

    def depth_at(self, position: int) -> int:
        return len(self._positions.get(position, ()))

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
    window keeps only positions that a future alignment could still
    touch. Peak state is O(max read length + max gap between flushes).
    """

    def __init__(self, chromosome: str, length: Optional[int] = None):
        """``length=None`` runs in *unbounded* mode: the consensus starts
        at the first alignment's position and ends at the last covered
        position — the mode the ``AssembleConsensus`` UDA uses, since an
        aggregate does not know the chromosome length."""
        self.chromosome = chromosome
        self.length = length
        #: summed votes ``{base: score}`` of each open position, from
        #: ``_window_start`` up. A position is opened by the alignment
        #: that first covers it, so none is empty; ``NO_CALL`` keeps an
        #: entry (coverage) that is dropped before ranking (no evidence)
        self._window: List[Dict[str, int]] = []
        self._window_start = 0 if length is not None else None
        self.start_position: Optional[int] = 0 if length is not None else None
        self._bases: List[str] = []
        self._qualities: List[int] = []
        self._covered = 0
        self.total_observations = 0
        self._last_position: Optional[int] = None
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
        if len(sequence) != len(qualities):
            raise ConsensusError("sequence/quality length mismatch")
        if not isinstance(qualities, bytes):
            qualities = [max(int(quality), 0) for quality in qualities]
        self._last_position = position
        if self._window_start is None:
            self._window_start = self.start_position = position
        self._flush_before(position)
        # flushed, the window starts at or after ``position``; only a
        # bounded window already at ``length`` can still start before it,
        # and then nothing of the read is left (``count`` <= 0)
        start = self._window_start
        end = position + len(sequence)
        if self.length is not None and end > self.length:
            end = self.length
        count = end - start
        if count <= 0:
            return
        if count < len(sequence):  # clipped by an edge of a bounded window
            skip = start - position
            sequence = sequence[skip : skip + count]
            qualities = qualities[skip : skip + count]
        window = self._window
        if len(window) < count:
            window.extend([{} for _ in range(count - len(window))])
            if len(window) > self.peak_window:
                self.peak_window = len(window)
        for votes, base, score in zip(window, sequence, qualities):
            votes[base] = votes.get(base, 0) + score
        self.total_observations += count

    def _flush_before(self, position: int) -> None:
        """Call and emit every window position strictly below ``position``
        — no later alignment can add observations there."""
        if self._window and self._window_start < position:
            self._emit(position - self._window_start)
        if not self._window and self._window_start < position:
            # uncovered gap between alignments
            limit = position if self.length is None else min(position, self.length)
            self._emit_gap(limit - self._window_start)

    def _emit(self, count: int) -> None:
        """Call the first ``count`` open positions and close them."""
        closed = self._window[:count]
        del self._window[:count]
        append_base = self._bases.append
        append_quality = self._qualities.append
        for votes in closed:
            if len(votes) == 1:
                # one distinct base, nearly every position of a real lane:
                # ``rank_votes`` for a single entry, without the call and
                # the sort (a quarter of the whole pass when measured)
                ((base, quality),) = votes.items()
                if base == NO_CALL:
                    quality = 0
                elif quality > MAX_CONSENSUS_QUALITY:
                    quality = MAX_CONSENSUS_QUALITY
            else:
                votes.pop(NO_CALL, None)
                base, quality = rank_votes(votes)
            append_base(base)
            append_quality(quality)
        self._covered += len(closed)
        self._window_start += len(closed)

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
        self._emit(len(self._window))
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
