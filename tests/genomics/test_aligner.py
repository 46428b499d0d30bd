"""Seed-hash aligner: exactness, strands, mismatch handling, mapq."""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics import aligner as aligner_module
from repro.genomics.aligner import AlignmentError, ReferenceIndex, ShortReadAligner
from repro.genomics.fasta import FastaRecord
from repro.genomics.fastq import FastqRecord
from repro.genomics.sequences import reverse_complement
from repro.genomics.simulate import simulate_dge_lane, simulate_resequencing_lane

REF_SEQ = (
    "TTCAGGACCTACGGATTCAATGCCTTGAAGCGCATCGTAGCTAGCTTGCAAGGTTCCAGT"
    "ACCGTTAAGCGGATCCTTAGCAACGGTGCTTAAACCCGGGTTTACAGATCGATCGGGCTA"
)


@pytest.fixture(scope="module")
def small_aligner():
    return ShortReadAligner(
        [FastaRecord("chrT", REF_SEQ)], seed_length=8, max_mismatches=2
    )


def read_at(position, length=36, mutate=()):
    seq = list(REF_SEQ[position : position + length])
    for offset, base in mutate:
        seq[offset] = base
    return FastqRecord("test_read", "".join(seq), "I" * length)


class TestIndex:
    def test_indexes_all_kmers(self):
        index = ReferenceIndex([FastaRecord("c", "ACGTACGT")], seed_length=4)
        assert len(index) == 0  # nothing is indexed before a batch asks
        # two seeds against five k-mer positions: the full-index side
        index.resolve(["ACGT", "CGTA"])
        assert index.complete
        assert len(index) == len({"ACGT", "CGTA", "GTAC", "TACG"})
        hits = [index.unpack(code) for code in index.hits("ACGT")]
        assert ("c", 0) in hits and ("c", 4) in hits

    def test_unknown_seed_empty(self):
        index = ReferenceIndex([FastaRecord("c", "AAAA")], seed_length=4)
        assert list(index.hits("CCCC")) == []

    def test_bad_seed_length(self):
        with pytest.raises(AlignmentError):
            ReferenceIndex([FastaRecord("c", "ACGT")], seed_length=2)


class TestExactAlignment:
    def test_forward_exact(self, small_aligner):
        hit = small_aligner.align(read_at(10))
        assert hit is not None
        assert (hit.reference, hit.position, hit.strand) == ("chrT", 10, "+")
        assert hit.mismatches == 0

    def test_reverse_strand(self, small_aligner):
        fragment = REF_SEQ[20:56]
        record = FastqRecord("rc", reverse_complement(fragment), "I" * 36)
        hit = small_aligner.align(record)
        assert hit is not None
        assert (hit.position, hit.strand) == (20, "-")
        assert hit.mismatches == 0

    def test_every_offset_alignable(self, small_aligner):
        for position in range(0, len(REF_SEQ) - 36, 7):
            hit = small_aligner.align(read_at(position))
            assert hit is not None and hit.position == position

    def test_foreign_sequence_unaligned(self, small_aligner):
        record = FastqRecord("junk", "A" * 36, "I" * 36)
        assert small_aligner.align(record) is None


class TestMismatches:
    def test_one_mismatch_found(self, small_aligner):
        hit = small_aligner.align(read_at(10, mutate=[(30, "A"), ]))
        # position 40 in ref is 'G'? regardless: one substitution somewhere
        if REF_SEQ[40] == "A":  # mutation was a no-op; pick another base
            hit = small_aligner.align(read_at(10, mutate=[(30, "C")]))
        assert hit is not None
        assert hit.position == 10
        assert hit.mismatches <= 1

    def test_two_mismatches_found(self, small_aligner):
        base1 = "A" if REF_SEQ[12] != "A" else "C"
        base2 = "A" if REF_SEQ[43] != "A" else "C"
        hit = small_aligner.align(read_at(10, mutate=[(2, base1), (33, base2)]))
        assert hit is not None and hit.position == 10

    def test_three_mismatches_rejected(self, small_aligner):
        mutations = []
        for offset in (2, 15, 33):
            original = REF_SEQ[10 + offset]
            mutations.append((offset, "A" if original != "A" else "C"))
        assert small_aligner.align(read_at(10, mutate=mutations)) is None

    def test_n_bases_count_as_mismatches(self, small_aligner):
        hit = small_aligner.align(read_at(10, mutate=[(20, "N")]))
        assert hit is not None and hit.mismatches == 1
        triple_n = read_at(10, mutate=[(5, "N"), (20, "N"), (30, "N")])
        assert small_aligner.align(triple_n) is None


class TestMappingQuality:
    def test_unique_exact_hit_high_mapq(self, small_aligner):
        hit = small_aligner.align(read_at(3))
        assert hit.mapping_quality >= 25

    def test_repeat_placement_zero_mapq(self):
        repeat = "ATCGGCTAAGCTTGCGATCCGTTAGCAAGCTGGATC"
        genome = "TTTT" + repeat + "CCCC" + repeat + "GGGG"
        aligner = ShortReadAligner(
            [FastaRecord("rep", genome)], seed_length=8
        )
        record = FastqRecord("r", repeat, "I" * len(repeat))
        hit = aligner.align(record)
        assert hit is not None
        assert hit.mapping_quality == 0


class TestAlignAll:
    def test_pairs_reads_with_hits(self, small_aligner):
        reads = [read_at(0), FastqRecord("junk", "A" * 36, "I" * 36)]
        results = list(small_aligner.align_all(reads))
        assert results[0][1] is not None
        assert results[1][1] is None

    def test_read_shorter_than_seed_rejected(self, small_aligner):
        with pytest.raises(AlignmentError):
            small_aligner.align(FastqRecord("tiny", "ACG", "III"))


def _mutated(rng, bases, count):
    """``bases`` with ``count`` substitutions at distinct offsets."""
    bases = list(bases)
    for offset in rng.sample(range(len(bases)), min(count, len(bases))):
        bases[offset] = rng.choice([b for b in "ACGTN" if b != bases[offset]])
    return "".join(bases)


@st.composite
def batches(draw, size):
    """A reference whose k-mers repeat within and across chromosomes,
    and a batch of reads cut from it: both strands, 0..m+1 mismatches,
    uncalled bases, overhangs past a chromosome's ends, foreign reads."""
    dna = st.text(alphabet="ACGT", min_size=1, max_size=60)
    motif = draw(st.text(alphabet="ACGT", min_size=8, max_size=30))
    chromosomes = []
    for c in range(draw(st.integers(1, 3))):
        parts = draw(st.lists(st.one_of(dna, st.just(motif)), min_size=1, max_size=6))
        chromosomes.append(FastaRecord(f"c{c}", "".join(parts) + motif))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # read 0 is an exact copy, so every batch aligns something
    reads = [FastqRecord("r0", chromosomes[0].sequence[:8], "I" * 8)]
    for i in range(1, size):
        length = rng.choice([8, 12, 20, 24, 30])
        seq = rng.choice(chromosomes).sequence
        start = rng.randrange(-6, len(seq))
        window = seq[max(start, 0) : start + length]
        # an overhang is filled with random bases
        bases = "".join(rng.choice("ACGT") for _ in range(length - len(window)))
        bases = bases + window if start < 0 else window + bases
        if rng.random() < 0.1:
            bases = "".join(rng.choice("ACGT") for _ in range(length))
        bases = _mutated(rng, bases, rng.randrange(0, 4))
        if rng.random() < 0.5:
            bases = reverse_complement(bases)
        quality = "".join(chr(33 + rng.randrange(2, 41)) for _ in range(length))
        reads.append(FastqRecord(f"r{i}", bases, quality))
    return chromosomes, reads


#: scan costs that make ``resolve`` always scan, or always build
FORCED = {
    "scan": {"SCAN_COST_PER_POSITION": 0.0, "SCAN_COST_PER_SEED": 0.0},
    "full": {"SCAN_COST_PER_POSITION": math.inf},
}


class TestResolveSides:
    """The seed scan and the full index are two ways to one answer."""

    @pytest.mark.parametrize("size", [1, 7, 600])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_scan_and_full_index_align_identically(self, size, data):
        chromosomes, reads = data.draw(batches(size))
        sides = {}
        for name, costs in FORCED.items():
            aligner = ShortReadAligner(chromosomes, seed_length=8)
            # unpacks of 3 k-mers put block edges inside every chromosome
            with mock.patch.multiple(aligner_module, _SCAN_BLOCK=3, **costs):
                sides[name] = aligner.align_many(reads)
            assert aligner.index.complete == (name == "full")
        assert sides["scan"] == sides["full"]
        # one result per read, in input order
        assert all(
            hit is None or hit.read_name == read.name
            for read, hit in zip(reads, sides["full"], strict=True)
        )
        assert sides["full"][0] is not None

    def test_dge_batch_scans_and_resequencing_batch_indexes(
        self, reference, genes
    ):
        dge = list(simulate_dge_lane(reference, genes, n_reads=2000, seed=7))
        tags = [
            FastqRecord(f"t{i}", seq, "I" * len(seq))
            for i, seq in enumerate(sorted({r.sequence for r in dge}))
        ]
        aligner = ShortReadAligner(reference)
        aligner.align_many(tags)
        assert not aligner.index.complete
        assert len(aligner.index) < aligner.index.positions / 20
        # 36-base reads at 6x coverage: their seeds are most of the
        # reference's k-mers
        bases = sum(len(record.sequence) for record in reference)
        reseq = list(
            simulate_resequencing_lane(reference, n_reads=bases * 6 // 36, seed=8)
        )
        aligner = ShortReadAligner(reference)
        aligner.align_many(reseq)
        assert aligner.index.complete
        kmers = {
            seq[i : i + 12]
            for seq in aligner.index.sequences.values()
            for i in range(len(seq) - 11)
        }
        assert len(aligner.index) == len(kmers)

    def test_short_read_raises_the_same_error_in_a_batch(self, small_aligner):
        tiny = FastqRecord("tiny", "ACG", "III")
        with pytest.raises(AlignmentError) as one:
            small_aligner.align(tiny)
        with pytest.raises(AlignmentError) as many:
            small_aligner.align_many([read_at(0), tiny, read_at(5)])
        assert str(many.value) == str(one.value)
