"""Seed-hash short-read alignment (MAQ-like).

The secondary data analysis of a re-sequencing or DGE experiment aligns
millions of short reads against a known reference. MAQ — the tool the
paper's lanes were aligned with — indexes read seeds and scans the
reference; we invert the arrangement (index the reference k-mers, look
up read seeds), which is equivalent for this scale and keeps the index
reusable across lanes.

Algorithm:

1. index every ``seed_length``-mer of every chromosome (both strands are
   handled by also trying the reverse-complemented read);
2. for a read allowing ``m`` mismatches, take ``m + 1`` non-overlapping
   seeds — by pigeonhole, any alignment with ≤ m mismatches matches at
   least one seed exactly;
3. verify each candidate position by counting mismatches, weighting them
   by base quality as MAQ does;
4. report the best hit with a MAQ-flavoured mapping quality: high when
   the best alignment's quality-weighted mismatch score is clearly
   better than the runner-up's, 0 when the placement is ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
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


class ReferenceIndex:
    """Hash index of reference k-mers → (chromosome, position) lists.

    Nearly every k-mer of a chromosome occurs once, so an entry is a
    plain int (see :data:`_OFFSET_BITS`) and becomes a list of them only
    on the first collision: no tuple and no one-element list per
    reference position for the garbage collector to track."""

    def __init__(self, reference: Sequence[FastaRecord], seed_length: int = 12):
        if seed_length < 4 or seed_length > 32:
            raise AlignmentError(f"unreasonable seed length {seed_length}")
        self.seed_length = seed_length
        self.sequences: Dict[str, str] = {
            record.name: record.sequence for record in reference
        }
        self._names: List[str] = list(self.sequences)
        self._index: Dict[str, Union[int, List[int]]] = {}
        index = self._index
        k = seed_length
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

    def hits(self, seed: str) -> Sequence[int]:
        """The packed positions of ``seed``, in chromosome order, then
        by position; :meth:`unpack` names them."""
        hit = self._index.get(seed, ())
        return (hit,) if type(hit) is int else hit

    def unpack(self, code: int) -> Tuple[str, int]:
        return self._names[code >> _OFFSET_BITS], code & _OFFSET_MASK

    def lookup(self, seed: str) -> List[Tuple[str, int]]:
        """Every ``(chromosome, position)`` of ``seed``, in chromosome
        order, then by position."""
        return [self.unpack(code) for code in self.hits(seed)]

    def __len__(self) -> int:
        return len(self._index)


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

    # -- verification ---------------------------------------------------------------

    @staticmethod
    def _mismatch_score(
        read: str, qualities: Sequence[int], ref: str, limit: int
    ) -> Optional[Tuple[int, int]]:
        """(mismatch count, quality-weighted score) or None past limit.

        'N' bases never match (they are uncalled) but carry their
        (low) quality as the penalty, as MAQ does.
        """
        mismatches = 0
        score = 0
        for i, (a, b) in enumerate(zip(read, ref)):
            if a != b or a == "N":
                mismatches += 1
                if mismatches > limit:
                    return None
                score += min(qualities[i], 30)
        return mismatches, score

    def _candidates(self, sequence: str) -> Iterator[Tuple[str, int]]:
        """Distinct ``(chromosome, position)`` placements of the read's
        seeds, in seed order, then index order."""
        index = self.index
        k = index.seed_length
        seen = set()
        for offset in self._seed_offsets(len(sequence)):
            seed = sequence[offset : offset + k]
            if "N" in seed:
                continue
            for code in index.hits(seed):
                if code & _OFFSET_MASK < offset:
                    continue  # the read would start before the chromosome
                # the subtraction stays inside the chromosome's offset bits
                start = code - offset
                if start in seen:
                    continue
                seen.add(start)
                yield index.unpack(start)

    # -- alignment ---------------------------------------------------------------------

    def align(self, record: FastqRecord) -> Optional[Alignment]:
        """Best alignment of one read, or None when nothing passes."""
        qualities = record.scores(self.quality_offset)
        best: Optional[Tuple[int, str, int, str, int]] = None  # score sort key
        second_score: Optional[int] = None
        for strand, sequence, quals in (
            ("+", record.sequence, qualities),
            ("-", reverse_complement(record.sequence), qualities[::-1]),
        ):
            for chrom, position in self._candidates(sequence):
                ref_seq = self.index.sequences[chrom]
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

    def align_all(
        self, records: Iterable[FastqRecord]
    ) -> Iterator[Tuple[FastqRecord, Optional[Alignment]]]:
        """Align a stream of reads, yielding (read, alignment-or-None)."""
        for record in records:
            yield record, self.align(record)
