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

import codecs
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from operator import itemgetter, le, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine.errors import EngineError
from .quality import PHRED33

#: base emitted for uncovered positions
NO_CALL = "N"

#: cap for consensus quality values
MAX_CONSENSUS_QUALITY = 93

#: closed window positions are called and emitted this many at a time
_BLOCK = 256

_SCORE = itemgetter(1)


class ConsensusError(EngineError):
    pass


def rank_votes(votes: Dict[str, int]) -> Tuple[str, int]:
    """Call one position from its summed votes, ``{base: score}`` with
    every score >= 0 and no ``NO_CALL`` entry.

    The highest score wins, a tie goes to the smaller base letter, and
    the consensus quality is the winner's margin over the runner-up,
    capped at ``MAX_CONSENSUS_QUALITY``. No votes: ``('N', 0)``.
    """
    if len(votes) < 2:  # no runner-up
        for base, score in votes.items():
            return base, min(score, MAX_CONSENSUS_QUALITY)
        return NO_CALL, 0
    # ``max`` keeps the first of equal scores, so the smaller letter
    ranked, scores = sorted(votes.items()), sorted(votes.values())
    base, score = max(ranked, key=_SCORE)
    return base, min(score - scores[-2], MAX_CONSENSUS_QUALITY)


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

    The summed scores of the open positions' first-seen bases are the
    lanes of one ``int``, ``_width`` bits each, lane 0 the window's
    first position: a read votes by shifting its own packed scores to
    its offset and adding, one integer add however long the read. Lanes
    start 16 bits wide and double (to 64) before a vote could carry out
    of one: :meth:`_fit` bounds the depth at any position from the reads'
    starts and lengths and the largest score seen.
    """

    def __init__(self, chromosome: str, length: Optional[int] = None):
        """``length=None`` runs in *unbounded* mode: the consensus starts
        at the first alignment's position and ends at the last covered
        position — the mode the ``AssembleConsensus`` UDA uses, since an
        aggregate does not know the chromosome length."""
        self.chromosome = chromosome
        self.length = length
        #: the window's positions, from ``_window_start`` up: each one's
        #: first-seen base, and that base's summed score in its lane of
        #: ``_lanes``. A position is opened by the alignment that first
        #: covers it, so none is empty
        self._first = ""
        self._lanes = 0
        self._width = 16
        #: the largest score and the longest read voted so far, and the
        #: starts of the reads that may still cover a later position:
        #: what :meth:`_fit` bounds the depth with
        self._peak = 0
        self._longest = 0
        self._recent: List[int] = []
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
        if len(sequence) != len(qualities):
            raise ConsensusError("sequence/quality length mismatch")
        if not isinstance(qualities, bytes):
            qualities = [max(int(quality), 0) for quality in qualities]
        self._vote_scores([position], [sequence], [qualities])

    def add_phred(
        self,
        positions: Sequence[int],
        sequences: Sequence[str],
        qualities: Sequence[Optional[str]],
        offset: int = PHRED33,
    ) -> None:
        """Vote a batch of alignments, each quality a Phred text at
        ``offset``: a character votes ``ord(ch) - offset``, one below the
        offset votes 0, a short or ``None`` text votes 0 for the bases it
        lacks and a long one is cut. The answer is the one
        :meth:`add_alignment` gives read by read, whatever the batch
        boundaries; alignments before one that breaks the order are
        voted, and the error is raised there."""
        positions = list(positions)
        last = self._last_position
        if positions and (
            (last is not None and positions[0] < last)
            or not all(map(le, positions, islice(positions, 1, None)))
        ):
            previous = last
            for bad, position in enumerate(positions):
                if previous is not None and position < previous:
                    break
                previous = position
            self.add_phred(
                positions[:bad], sequences[:bad], qualities[:bad], offset
            )
            raise ConsensusError(
                "alignments must arrive ordered by start position "
                f"({position} after {previous})"
            )
        if not positions:
            return
        sequences = list(sequences)
        lengths = list(map(len, sequences))
        text = None if None in qualities else "".join(qualities)
        if (
            text is None
            or list(map(len, qualities)) != lengths
            or not _phred_text(offset).fullmatch(text)
        ):
            # a quality the lanes cannot take as its code points
            self._vote_scores(
                positions,
                sequences,
                list(map(_phred_scores, qualities, lengths, repeat(offset))),
            )
            return
        self._fit(positions, lengths, _MAX_PHRED_CODE - offset)
        encode = _ENCODERS.get(self._width)
        if encode is None:
            scores = map(_phred_scores, qualities, lengths, repeat(offset))
            packed = list(map(_pack, scores, repeat(self._width)))
        else:
            # each character is one lane: its code point, less the
            # offset in every lane of a read that long
            bias = {
                size: offset * _ones(size, self._width)
                for size in set(lengths)
            }
            packed = list(map(
                sub,
                map(int.from_bytes, map(_FIRST, map(encode, qualities)),
                    repeat("little")),
                map(bias.__getitem__, lengths),
            ))
        self._vote(positions, sequences, packed)

    def _vote_scores(
        self,
        positions: List[int],
        sequences: List[str],
        scores: List[Sequence[int]],
    ) -> None:
        """Vote reads whose scores are given one int per base."""
        self._fit(
            positions,
            list(map(len, sequences)),
            max(map(max, filter(None, scores)), default=0),
        )
        self._vote(
            positions, sequences, list(map(_pack, scores, repeat(self._width)))
        )

    def _fit(self, positions: List[int], lengths: List[int], peak: int) -> None:
        """Widen the lanes until the reads voted so far and ``positions``
        (their lengths ``lengths``, no score above ``peak``) cannot carry
        out of one. ``depth`` reads of the largest score fit in a lane;
        more can cover one position only if some ``depth + 1``
        consecutive starts lie within the longest read."""
        longest = max(self._longest, max(lengths, default=0))
        peak = max(self._peak, peak)
        starts = self._recent + positions
        width = self._width
        while peak:
            depth = ((1 << width) - 1) // peak
            if len(starts) <= depth or min(
                map(sub, starts[depth:], starts)
            ) >= longest:
                break
            width *= 2
        if width != self._width:
            if width not in _WIDTHS:
                raise ConsensusError(
                    "summed scores at one position would exceed 64 bits"
                )
            self._lanes = _pack(
                _unpack(self._lanes, len(self._first), self._width), width
            )
            self._width = width
        self._longest, self._peak = longest, peak
        # only a read starting within ``longest`` of the last start can
        # cover a position a later read votes at
        self._recent = starts[bisect_right(starts, starts[-1] - longest):]

    def _vote(
        self, positions: List[int], sequences: List[str], packed: List[int]
    ) -> None:
        """Vote each read's packed scores (``_width`` bits a base) into
        the window; the lanes are known to hold every sum."""
        length, width = self.length, self._width
        start = self._window_start
        if start is None:
            start = self._window_start = self.start_position = positions[0]
        first, lanes, others = self._first, self._lanes, self._others
        observations, peak = 0, self.peak_window
        for position, sequence, scores in zip(positions, sequences, packed):
            size = len(sequence)
            if position > start + len(first):
                # past the window's end: close all of it and the gap after it
                self._first, self._lanes = first, lanes
                limit = position if length is None else min(position, length)
                self._emit(len(first), limit - start - len(first))
                start, first, lanes = self._window_start, "", 0
            elif position - start >= _BLOCK:
                # positions below ``position`` are final: emit them together
                self._first, self._lanes = first, lanes
                self._emit(position - start)
                start, first, lanes = self._window_start, self._first, self._lanes
            # a bounded window may start after ``position`` (a read hanging
            # below 0, or a window already at ``length``)
            low = position if position > start else start
            end = position + size
            if length is not None and end > length:
                end = length
            count = end - low
            if count <= 0:
                continue
            if count < size:  # clipped by an edge of a bounded window
                skip = low - position
                sequence = sequence[skip : skip + count]
                scores = (scores >> skip * width) & ((1 << count * width) - 1)
            offset = low - start
            overlap = len(first) - offset
            if overlap > count:
                overlap = count
            # every score goes to the open position's first base; a read
            # that disagrees with the window somewhere (about one in nine
            # of a simulated lane) then moves its other bases' scores out
            lanes += scores << offset * width
            if sequence[:overlap] != first[offset : offset + overlap]:
                mask = (1 << width) - 1
                for i, base, seen in zip(range(overlap), sequence, first[offset:]):
                    if base != seen:
                        score = (scores >> i * width) & mask
                        lanes -= score << (offset + i) * width
                        votes = others.setdefault(low + i, {})
                        votes[base] = votes.get(base, 0) + score
            if count > overlap:
                first += sequence[overlap:]
                if count > peak:
                    peak = count
            observations += count
        self._first, self._lanes = first, lanes
        self._last_position = positions[-1]
        self.total_observations += observations
        self.peak_window = peak

    def _emit(self, count: int, gap: int = 0) -> None:
        """Call and emit the first ``count`` window positions, then
        ``gap`` uncovered positions after them (all of the window must
        be emitted then). One string slice gives the bases, the lanes are
        read back once, and :func:`rank_votes` runs only where a
        position saw a second base."""
        first, lanes, width = self._first, self._lanes, self._width
        size = width // 8
        start = self._window_start
        block = first[:count]
        # the block's lanes, lane 0 first and ``size`` bytes each; a lane
        # is capped at MAX_CONSENSUS_QUALITY a byte plane at a time: its
        # low byte by table, and a lane with any higher byte set is past
        # the cap
        raw = (lanes & ((1 << count * width) - 1)).to_bytes(count * size, "little")
        high = 0
        for plane in range(1, size):
            high |= int.from_bytes(raw[plane::size], "little")
        past = high.to_bytes(count, "little").translate(_PAST_CAP)
        capped = int.from_bytes(raw[::size].translate(_CAP), "little") | (
            int.from_bytes(past, "little")
        )
        qualities = list(capped.to_bytes(count, "little").translate(_CAP))
        offset = block.find(NO_CALL)
        while offset >= 0:  # coverage without evidence
            qualities[offset] = 0
            offset = block.find(NO_CALL, offset + 1)
        others = self._others
        called = list(filter((start + count).__gt__, others)) if others else ()
        if called:
            bases = list(block)
            for position in called:
                votes = others.pop(position)
                offset = position - start
                votes[bases[offset]] = int.from_bytes(
                    raw[offset * size : (offset + 1) * size], "little"
                )
                votes.pop(NO_CALL, None)
                bases[offset], qualities[offset] = rank_votes(votes)
            block = "".join(bases)
        self._bases.append(block)
        self._qualities.extend(qualities)
        self._first = first[count:]
        self._lanes = lanes >> count * width
        self._covered += count
        self._window_start += count
        if gap > 0:
            self._bases.append(NO_CALL * gap)
            self._qualities.extend(repeat(0, gap))
            self._window_start += gap

    def finish(self) -> ConsensusResult:
        """Flush the tail and produce the chromosome consensus."""
        if self._window_start is None:
            self._window_start = 0
            self.start_position = 0
        count = len(self._first)
        end = self._window_start + count
        self._emit(count, 0 if self.length is None else self.length - end)
        return ConsensusResult(
            chromosome=self.chromosome,
            sequence="".join(self._bases),
            qualities=self._qualities,
            covered_positions=self._covered,
            total_observations=self.total_observations,
            start=self.start_position or 0,
        )


# ---------------------------------------------------------------------------
# lanes: scores packed into one int
# ---------------------------------------------------------------------------

#: ``'~'``, the last character a quality text may put in a lane as is
_MAX_PHRED_CODE = 126

#: the lane widths the window widens through
_WIDTHS = (16, 32, 64)

#: the text encoders that spell a character as one lane of a width
#: (each returns ``(bytes, length)``)
_ENCODERS = {16: codecs.utf_16_le_encode, 32: codecs.utf_32_le_encode}
_FIRST = itemgetter(0)

#: byte tables: a byte capped at MAX_CONSENSUS_QUALITY, and a byte that
#: puts its lane past the cap when it is a lane's higher byte
_CAP = bytes(min(code, MAX_CONSENSUS_QUALITY) for code in range(256))
_PAST_CAP = bytes(255 if code else 0 for code in range(256))


def _ones(size: int, width: int) -> int:
    """``size`` lanes of ``width`` bits, each holding 1."""
    return ((1 << size * width) - 1) // ((1 << width) - 1)


def _pack(scores: Iterable[int], width: int) -> int:
    """``scores`` (each below ``1 << width``) as lanes, the first lowest."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, scores, repeat(width // 8), repeat("little"))),
        "little",
    )


def _unpack(lanes: int, count: int, width: int) -> List[int]:
    """The first ``count`` lanes of ``lanes``."""
    size = width // 8
    raw = lanes.to_bytes(count * size, "little")
    cuts = range(0, len(raw) + 1, size)
    return list(map(
        int.from_bytes, map(raw.__getitem__, map(slice, cuts, cuts[1:])),
        repeat("little"),
    ))


@lru_cache(maxsize=8)
def _phred_text(offset: int) -> "re.Pattern[str]":
    """Matches a quality text whose every character is one lane: none
    below ``offset`` and none past ``'~'``."""
    return re.compile(f"[{re.escape(chr(offset))}-{chr(_MAX_PHRED_CODE)}]*")


def _phred_scores(text: Optional[str], size: int, offset: int) -> List[int]:
    """One score per base of a ``size``-base read from its Phred
    ``text``, for a text :func:`_phred_text` does not match: a character
    below the offset scores 0, and so does a base past a short text."""
    scores = [max(ord(ch) - offset, 0) for ch in (text or "")[:size]]
    scores += [0] * (size - len(scores))
    return scores
