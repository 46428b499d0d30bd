"""Seed-hash short-read alignment (MAQ-like).

The secondary data analysis of a re-sequencing or DGE experiment aligns
millions of short reads against a known reference. MAQ — the tool the
paper's lanes were aligned with — indexes read seeds and scans the
reference. Alignment here is the same hash join between a batch's read
seeds and the reference k-mers, built on whichever side is smaller:

- a batch with few distinct seeds next to the reference's k-mer
  positions (the unique tags of a DGE lane) scans each chromosome once
  and records the positions of just those seeds, as MAQ does;
- a batch whose seeds cover a good share of the reference (a
  re-sequencing lane at a few-fold coverage) indexes every k-mer.

Either way the index keeps what it resolved, so a later batch looks up
only the seeds it adds, and the full index serves every later batch.
Scans stop once they have cost as much as one full build: a stream of
small batches then builds, and never pays much more than two builds.

Algorithm:

1. for a read allowing ``m`` mismatches, take ``m + 1`` non-overlapping
   ``seed_length``-mers of the read and of its reverse complement — by
   pigeonhole, any alignment with ≤ m mismatches matches at least one
   seed exactly;
2. resolve the batch's distinct seeds against the reference (above);
3. verify each candidate position by counting mismatches, weighting them
   by base quality as MAQ does;
4. report the best hit with a MAQ-flavoured mapping quality: high when
   the best alignment's quality-weighted mismatch score is clearly
   better than the runner-up's, 0 when the placement is ambiguous.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..engine.errors import EngineError
from .fasta import FastaRecord
from .fastq import FastqRecord
from .quality import PHRED33
from .sequences import reverse_complement


class AlignmentError(EngineError):
    pass


@dataclass(frozen=True)
class Alignment:
    """One read-to-reference placement (a Level-2 data row)."""

    read_name: str
    reference: str
    position: int  # 0-based leftmost position on the forward strand
    strand: str  # '+' or '-'
    mismatches: int
    mapping_quality: int
    read_length: int


#: a reference position is stored as one int: the chromosome's ordinal
#: above this many bits, the 0-based offset below them
_OFFSET_BITS = 40
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1

#: what one seed scan costs, in units of one k-mer position of a full
#: build: per reference position (the filter pass) and per wanted seed
#: (recording it); fitted to the sweep of
#: ``benchmarks/results/align_record.txt`` §2
SCAN_COST_PER_POSITION = 0.13
SCAN_COST_PER_SEED = 3.7
#: k-mers one unpack of a seed scan cuts: memory stays flat however
#: long a chromosome is
_SCAN_BLOCK = 4096
#: reads per :meth:`ShortReadAligner.align_many` call when aligning a stream
ALIGN_BATCH_READS = 4096


@lru_cache(maxsize=32)
def _chunker(k: int, count: int) -> struct.Struct:
    """Unpacks ``count`` adjacent ``k``-byte strings in one C call."""
    return struct.Struct(f"{k}s" * count)


class ReferenceIndex:
    """Hash index of reference k-mers → (chromosome, position) lists,
    filled on demand by :meth:`resolve`.

    Nearly every k-mer of a chromosome occurs once, so an entry is a
    plain int (see :data:`_OFFSET_BITS`) and becomes a list of them only
    on the first collision: no tuple and no one-element list per
    reference position for the garbage collector to track. A seed a scan
    found nowhere is recorded as ``()``."""

    def __init__(self, reference: Sequence[FastaRecord], seed_length: int = 12):
        if seed_length < 4 or seed_length > 32:
            raise AlignmentError(f"unreasonable seed length {seed_length}")
        self.seed_length = seed_length
        self.sequences: Dict[str, str] = {
            record.name: record.sequence for record in reference
        }
        self._names: List[str] = list(self.sequences)
        #: k-mer start positions over every chromosome
        self.positions = sum(
            max(len(seq) - seed_length + 1, 0) for seq in self.sequences.values()
        )
        self._index: Dict[str, Union[int, List[int], Tuple[()]]] = {}
        #: every k-mer is indexed; no seed needs resolving any more
        self.complete = False
        #: what the scans so far cost, in build positions
        self._scan_cost = 0.0

    def resolve(self, seeds: Iterable[str]) -> None:
        """Make :meth:`hits` answer every one of ``seeds`` from memory.

        The seeds not resolved yet are scanned for while the scans so
        far, this one included, cost no more than one full build (so a
        batch with few distinct seeds next to the reference's k-mer
        positions scans, up to about a quarter of them); otherwise every
        k-mer is indexed. However the batches come, they never cost much
        more than two builds."""
        if self.complete:
            return
        wanted = set(seeds).difference(self._index)
        if not wanted:
            return
        cost = (
            SCAN_COST_PER_POSITION * self.positions
            + SCAN_COST_PER_SEED * len(wanted)
        )
        if self._scan_cost + cost <= self.positions:
            self._scan_cost += cost
            self._scan(wanted)
        else:
            self._build()

    def _build(self) -> None:
        index: Dict[str, Union[int, List[int], Tuple[()]]] = {}
        k = self.seed_length
        for ordinal, seq in enumerate(self.sequences.values()):
            base = ordinal << _OFFSET_BITS
            for i in range(len(seq) - k + 1):
                seed = seq[i : i + k]
                hit = index.get(seed)
                if hit is None:
                    index[seed] = base + i
                elif type(hit) is int:
                    index[seed] = [hit, base + i]
                else:
                    hit.append(base + i)
        self._index = index
        self.complete = True

    def _scan(self, wanted: Set[str]) -> None:
        """Record every position of the ``wanted`` seeds (none of them
        indexed yet), in chromosome order, then by position."""
        index = self._index
        k = self.seed_length
        # the filter compares bytes, one per character either way, so
        # equal strings pass; the ``in wanted`` guard drops the few
        # false passes a replaced non-ASCII character can make
        contains = {
            seed.encode("ascii", "replace") for seed in wanted
        }.__contains__
        for ordinal, seq in enumerate(self.sequences.values()):
            base = ordinal << _OFFSET_BITS
            data = seq.encode("ascii", "replace")
            # the k-mers starting at phase, phase + k, ... come out of one
            # unpack, a block at a time; their positions pass where the
            # seed is wanted
            found: List[int] = []
            for block in range(0, len(data), k * _SCAN_BLOCK):
                for phase in range(block, block + k):
                    count = min(_SCAN_BLOCK, (len(data) - phase) // k)
                    if count > 0:
                        chunks = _chunker(k, count).unpack_from(data, phase)
                        found += compress(
                            range(phase, phase + count * k, k),
                            map(contains, chunks),
                        )
            found.sort()
            for i in found:
                seed = seq[i : i + k]
                if seed not in wanted:
                    continue
                hit = index.get(seed)
                if hit is None:
                    index[seed] = base + i
                elif type(hit) is int:
                    index[seed] = [hit, base + i]
                else:
                    hit.append(base + i)
        for seed in wanted:
            index.setdefault(seed, ())

    def hits(self, seed: str) -> Sequence[int]:
        """The packed positions of ``seed``, in chromosome order, then
        by position; :meth:`unpack` names them."""
        hit = self._index.get(seed)
        if hit is None:
            if self.complete:
                return ()
            self.resolve((seed,))
            hit = self._index.get(seed, ())
        return (hit,) if type(hit) is int else hit

    def unpack(self, code: int) -> Tuple[str, int]:
        return self._names[code >> _OFFSET_BITS], code & _OFFSET_MASK

    def __len__(self) -> int:
        """Seeds resolved so far (every distinct k-mer once complete)."""
        return len(self._index)


#: a read length's seed offsets, and the getter that cuts a strand's
#: seeds at them
_SeedPlan = Tuple[List[int], Callable[[str], Tuple[str, ...]]]


class ShortReadAligner:
    """Aligns FASTQ records against an indexed reference."""

    def __init__(
        self,
        reference: Sequence[FastaRecord],
        seed_length: int = 12,
        max_mismatches: int = 2,
        quality_offset: int = PHRED33,
    ):
        self.index = ReferenceIndex(reference, seed_length)
        self.max_mismatches = max_mismatches
        self.quality_offset = quality_offset
        #: read length -> :meth:`_seed_plan`
        self._seeding: Dict[int, _SeedPlan] = {}

    # -- seeding -----------------------------------------------------------------

    def _seed_offsets(self, read_length: int) -> List[int]:
        """Non-overlapping seed start offsets (pigeonhole coverage)."""
        k = self.index.seed_length
        needed = self.max_mismatches + 1
        offsets = []
        for i in range(needed):
            offset = i * k
            if offset + k > read_length:
                break
            offsets.append(offset)
        if not offsets:
            raise AlignmentError(
                f"read length {read_length} shorter than one seed ({k})"
            )
        return offsets

    def _seed_plan(self, read_length: int) -> _SeedPlan:
        """A read length's seed offsets, and a C-level getter that slices
        a strand's seeds at them."""
        k = self.index.seed_length
        offsets = self._seed_offsets(read_length)
        if len(offsets) == 1:
            return offsets, lambda strand: (strand[:k],)
        return offsets, itemgetter(*[slice(offset, offset + k) for offset in offsets])

    # -- verification ---------------------------------------------------------------

    def _mismatch_score(
        self, read: str, quality: str, ref: str, limit: int
    ) -> Optional[Tuple[int, int]]:
        """(mismatch count, quality-weighted score) or None past limit.

        'N' bases never match (they are uncalled) but carry their
        (low) quality as the penalty, as MAQ does. ``quality`` is the
        read's quality string, decoded only where a base mismatches.
        """
        if read == ref and "N" not in read:
            return 0, 0
        offset = self.quality_offset
        mismatches = 0
        score = 0
        for i, (a, b) in enumerate(zip(read, ref)):
            if a != b or a == "N":
                mismatches += 1
                if mismatches > limit:
                    return None
                score += min(ord(quality[i]) - offset, 30)
        return mismatches, score

    def _candidates(
        self, offsets: List[int], seeds: Sequence[str]
    ) -> Iterator[Tuple[str, int]]:
        """Distinct ``(chromosome, position)`` placements of the read's
        seeds, in seed order, then index order."""
        index = self.index
        seen = set()
        for offset, seed in zip(offsets, seeds):
            if "N" in seed:
                continue  # an uncalled base matches nothing exactly
            for code in index.hits(seed):
                if code & _OFFSET_MASK < offset:
                    continue  # the read would start before the chromosome
                # the subtraction stays inside the chromosome's offset bits
                start = code - offset
                if start in seen:
                    continue
                seen.add(start)
                yield index.unpack(start)

    def _best(
        self,
        record: FastqRecord,
        reverse: str,
        offsets: List[int],
        forward_seeds: Sequence[str],
        reverse_seeds: Sequence[str],
    ) -> Optional[Alignment]:
        """Best placement of one read over both of its strands."""
        best: Optional[Tuple[int, str, int, str, int]] = None  # score sort key
        second_score: Optional[int] = None
        sequences = self.index.sequences
        quality = record.quality
        for strand, sequence, quals, seeds in (
            ("+", record.sequence, quality, forward_seeds),
            ("-", reverse, quality[::-1], reverse_seeds),
        ):
            for chrom, position in self._candidates(offsets, seeds):
                ref_seq = sequences[chrom]
                if position + len(sequence) > len(ref_seq):
                    continue
                window = ref_seq[position : position + len(sequence)]
                verdict = self._mismatch_score(
                    sequence, quals, window, self.max_mismatches
                )
                if verdict is None:
                    continue
                mismatches, score = verdict
                entry = (score, chrom, position, strand, mismatches)
                if best is None or entry[0] < best[0]:
                    second_score = best[0] if best is not None else None
                    best = entry
                elif second_score is None or entry[0] < second_score:
                    # equal placements count as competing hits too
                    if (entry[1], entry[2], entry[3]) != (best[1], best[2], best[3]):
                        second_score = entry[0]
        if best is None:
            return None
        score, chrom, position, strand, mismatches = best
        if second_score is None:
            mapq = 60 if mismatches == 0 else max(25, 60 - 10 * mismatches)
        else:
            mapq = max(0, min(60, second_score - score))
        return Alignment(
            read_name=record.name,
            reference=chrom,
            position=position,
            strand=strand,
            mismatches=mismatches,
            mapping_quality=mapq,
            read_length=len(record.sequence),
        )

    # -- alignment ---------------------------------------------------------------------

    def align_many(self, records: Sequence[FastqRecord]) -> List[Optional[Alignment]]:
        """Best alignment of each read, or None when nothing passes, in
        input order. Each read's strands and seeds are cut once, and the
        batch's seeds are resolved in one :meth:`ReferenceIndex.resolve`
        call before any read is verified."""
        seeding = self._seeding
        lowest = chr(self.quality_offset)
        wanted: Set[str] = set()
        batch = []
        for record in records:
            forward = record.sequence
            plan = seeding.get(len(forward))
            if plan is None:
                plan = seeding[len(forward)] = self._seed_plan(len(forward))
            if record.quality and min(record.quality) < lowest:
                record.scores(self.quality_offset)  # raises the decoder's error
            offsets, seeds_of = plan
            reverse = reverse_complement(forward)
            forward_seeds = seeds_of(forward)
            reverse_seeds = seeds_of(reverse)
            wanted.update(forward_seeds)
            wanted.update(reverse_seeds)
            batch.append((record, reverse, offsets, forward_seeds, reverse_seeds))
        self.index.resolve(wanted)
        best = self._best
        return [best(*read) for read in batch]

    def align(self, record: FastqRecord) -> Optional[Alignment]:
        """Best alignment of one read, or None when nothing passes."""
        return self.align_many((record,))[0]

    def align_all(
        self, records: Iterable[FastqRecord]
    ) -> Iterator[Tuple[FastqRecord, Optional[Alignment]]]:
        """Align a stream of reads, :data:`ALIGN_BATCH_READS` at a time,
        yielding (read, alignment-or-None)."""
        records = iter(records)
        while batch := list(islice(records, ALIGN_BATCH_READS)):
            yield from zip(batch, self.align_many(batch))
