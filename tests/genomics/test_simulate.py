"""Read simulation: determinism and workload statistics."""

from collections import Counter

import pytest

from repro.genomics.fastq import parse_illumina_name
from repro.genomics.quality import decode_phred
from repro.genomics.simulate import (
    QualityModel,
    SimulationError,
    TILES_PER_LANE,
    annotate_genes,
    expression_profile,
    generate_reference,
    simulate_dge_lane,
    simulate_resequencing_lane,
)


class TestReference:
    def test_deterministic(self):
        a = generate_reference(n_chromosomes=2, chromosome_length=5000, seed=9)
        b = generate_reference(n_chromosomes=2, chromosome_length=5000, seed=9)
        assert [r.sequence for r in a] == [r.sequence for r in b]

    def test_different_seeds_differ(self):
        a = generate_reference(1, 5000, seed=1)
        b = generate_reference(1, 5000, seed=2)
        assert a[0].sequence != b[0].sequence

    def test_shapes(self):
        ref = generate_reference(n_chromosomes=3, chromosome_length=7000, seed=1)
        assert [r.name for r in ref] == ["chr1", "chr2", "chr3"]
        assert all(len(r.sequence) == 7000 for r in ref)

    def test_gc_content_controlled(self):
        ref = generate_reference(1, 50_000, gc=0.6, seed=4)
        sequence = ref[0].sequence
        gc = sum(base in "GC" for base in sequence) / len(sequence)
        assert gc == pytest.approx(0.6, abs=0.03)

    def test_bad_gc_rejected(self):
        with pytest.raises(SimulationError):
            generate_reference(1, 1000, gc=1.5)


class TestGenes:
    def test_non_overlapping(self, reference):
        genes = annotate_genes(reference, n_genes=20, seed=5)
        by_chrom = {}
        for gene in genes:
            by_chrom.setdefault(gene.chromosome, []).append(gene)
        for chrom_genes in by_chrom.values():
            spans = sorted((g.start, g.end) for g in chrom_genes)
            for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
                assert e1 <= s2

    def test_within_bounds(self, reference, genes):
        lengths = {r.name: len(r.sequence) for r in reference}
        for gene in genes:
            assert 0 <= gene.start < gene.end <= lengths[gene.chromosome]

    def test_too_many_genes_raises(self):
        tiny = generate_reference(1, 3000, seed=1)
        with pytest.raises(SimulationError):
            annotate_genes(tiny, n_genes=100, gene_length=(500, 900))


class TestResequencingLane:
    def test_read_count_and_length(self, reference):
        reads = list(simulate_resequencing_lane(reference, 200, seed=7))
        assert len(reads) == 200
        assert all(len(r.sequence) == 36 for r in reads)
        assert all(len(r.quality) == 36 for r in reads)

    def test_names_follow_illumina_convention(self, reference):
        reads = list(simulate_resequencing_lane(reference, 50, seed=7, lane=3))
        for read in reads:
            parsed = parse_illumina_name(read.name)
            assert parsed.lane == 3
            assert 1 <= parsed.tile <= TILES_PER_LANE

    def test_mostly_unique_reads(self, reference):
        """The Table 2 workload property: almost all reads unique."""
        reads = list(simulate_resequencing_lane(reference, 1000, seed=7))
        unique = len({r.sequence for r in reads})
        assert unique > 950

    def test_deterministic(self, reference):
        a = [r.sequence for r in simulate_resequencing_lane(reference, 50, seed=1)]
        b = [r.sequence for r in simulate_resequencing_lane(reference, 50, seed=1)]
        assert a == b

    def test_reads_derive_from_reference(self, reference, aligner):
        reads = list(simulate_resequencing_lane(reference, 100, seed=8))
        hits = sum(1 for _r, a in aligner.align_all(reads) if a is not None)
        assert hits >= 95  # nearly all align back

    def test_read_too_long_rejected(self):
        tiny = generate_reference(1, 100, seed=1)
        with pytest.raises(SimulationError):
            list(simulate_resequencing_lane(tiny, 1, read_length=500))


class TestQualityModel:
    def test_scores_decay_along_read(self):
        import random

        model = QualityModel(start_q=35, decay=0.5, jitter=0)
        scores = model.scores(36, random.Random(1))
        assert scores[0] > scores[-1]
        assert all(2 <= s <= 93 for s in scores)

    def test_quality_strings_decode(self, reference):
        reads = list(simulate_resequencing_lane(reference, 20, seed=3))
        for read in reads:
            scores = decode_phred(read.quality)
            assert all(s >= 2 for s in scores)


class TestDgeLane:
    def test_heavy_tag_repetition(self, reference, genes):
        """The Table 1 workload property: few unique tags, many repeats."""
        reads = list(simulate_dge_lane(reference, genes, 2000, seed=9))
        counts = Counter(r.sequence for r in reads)
        assert len(counts) < len(reads) * 0.3
        top_share = counts.most_common(1)[0][1] / len(reads)
        assert top_share > 0.1  # Zipf head dominates

    def test_expression_profile_normalised_and_heavy_tailed(self, genes):
        profile = expression_profile(genes, seed=2)
        weights = [w for _g, w in profile]
        assert sum(weights) == pytest.approx(1.0)
        assert max(weights) > 2 * (sum(weights) / len(weights))

    def test_tags_align_within_genes(self, reference, genes, aligner):
        reads = list(simulate_dge_lane(reference, genes, 300, seed=10))
        spans = {
            g.chromosome: [] for g in genes
        }
        for gene in genes:
            spans[gene.chromosome].append((gene.start - 36, gene.end + 36))
        in_gene = 0
        aligned = 0
        for _read, hit in aligner.align_all(reads):
            if hit is None:
                continue
            aligned += 1
            if any(
                s <= hit.position <= e for s, e in spans.get(hit.reference, [])
            ):
                in_gene += 1
        assert aligned > 250
        assert in_gene / aligned > 0.9

    def test_deterministic(self, reference, genes):
        a = [r.sequence for r in simulate_dge_lane(reference, genes, 100, seed=1)]
        b = [r.sequence for r in simulate_dge_lane(reference, genes, 100, seed=1)]
        assert a == b
