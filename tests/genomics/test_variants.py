"""SNP simulation and calling."""

import pytest

from repro.genomics.consensus import ConsensusResult
from repro.genomics.fasta import FastaRecord
from repro.genomics.variants import (
    Snp,
    VariantError,
    call_snps,
    mutate_reference,
    score_calls,
)


class TestMutateReference:
    def test_truth_matches_changes(self, reference):
        mutated, truth = mutate_reference(reference, 0.002, seed=5)
        originals = {r.name: r.sequence for r in reference}
        for snp in truth:
            original = originals[snp.chromosome]
            changed = next(
                r.sequence for r in mutated if r.name == snp.chromosome
            )
            assert original[snp.position] == snp.ref_base
            assert changed[snp.position] == snp.alt_base
            assert snp.ref_base != snp.alt_base

    def test_rate_respected(self, reference):
        mutated, truth = mutate_reference(reference, 0.001, seed=5)
        total = sum(len(r.sequence) for r in reference)
        assert len(truth) == pytest.approx(total * 0.001, rel=0.2)

    def test_zero_rate_identity(self, reference):
        mutated, truth = mutate_reference(reference, 0.0, seed=5)
        assert truth == []
        assert [r.sequence for r in mutated] == [
            r.sequence for r in reference
        ]

    def test_deterministic(self, reference):
        _m1, t1 = mutate_reference(reference, 0.001, seed=9)
        _m2, t2 = mutate_reference(reference, 0.001, seed=9)
        assert t1 == t2

    def test_bad_rate(self, reference):
        with pytest.raises(VariantError):
            mutate_reference(reference, 1.5)


def make_consensus(sequence, qualities=None, start=0):
    qualities = qualities if qualities is not None else [40] * len(sequence)
    return ConsensusResult(
        chromosome="chrT",
        sequence=sequence,
        qualities=qualities,
        covered_positions=len(sequence),
        total_observations=len(sequence),
        start=start,
    )


class TestCallSnps:
    REF = "ACGTACGTAC"

    def test_perfect_consensus_no_snps(self):
        assert call_snps(self.REF, make_consensus(self.REF)) == []

    def test_single_difference_called(self):
        consensus = make_consensus("ACGTTCGTAC")
        snps = call_snps(self.REF, consensus)
        assert snps == [Snp("chrT", 4, "A", "T", 40)]

    def test_n_positions_skipped(self):
        consensus = make_consensus("ACGTNCGTAC")
        assert call_snps(self.REF, consensus) == []

    def test_low_quality_filtered(self):
        consensus = make_consensus("ACGTTCGTAC", qualities=[5] * 10)
        assert call_snps(self.REF, consensus, min_quality=20) == []
        assert len(call_snps(self.REF, consensus, min_quality=0)) == 1

    def test_start_offset_respected(self):
        consensus = make_consensus("TACG", start=3)
        # reference[3:7] == "TACG": no difference
        assert call_snps(self.REF, consensus) == []
        shifted = make_consensus("TACC", start=3)
        snps = call_snps(self.REF, shifted)
        assert snps == [Snp("chrT", 6, "G", "C", 40)]

    def test_consensus_past_reference_end_clipped(self):
        consensus = make_consensus("ACGTACGTACGTACGT")  # longer than ref
        snps = call_snps(self.REF, consensus)
        assert all(s.position < len(self.REF) for s in snps)


class TestScore:
    def test_perfect_calls(self):
        truth = [Snp("c", 1, "A", "T"), Snp("c", 5, "G", "C")]
        score = score_calls(truth, truth)
        assert score["precision"] == 1.0 and score["recall"] == 1.0

    def test_partial_recall(self):
        truth = [Snp("c", 1, "A", "T"), Snp("c", 5, "G", "C")]
        score = score_calls(truth[:1], truth)
        assert score["recall"] == 0.5 and score["precision"] == 1.0

    def test_false_positive_hits_precision(self):
        truth = [Snp("c", 1, "A", "T")]
        called = truth + [Snp("c", 9, "A", "G")]
        score = score_calls(called, truth)
        assert score["precision"] == 0.5 and score["recall"] == 1.0

    def test_empty_cases(self):
        assert score_calls([], [])["precision"] == 1.0


class TestEndToEndRecovery:
    def test_planted_snps_recovered_through_pipeline(self, reference):
        """Sequence an individual (mutated genome), align against the
        *original* reference, call SNPs — the planted variants must come
        back with high precision and recall."""
        from repro.core import GenomicsWarehouse
        from repro.genomics.simulate import simulate_resequencing_lane

        individual, truth = mutate_reference(reference, 0.0015, seed=17)
        reads = list(
            simulate_resequencing_lane(individual, n_reads=12_000, seed=18)
        )
        wh = GenomicsWarehouse()
        try:
            wh.load_reference(reference)  # align against the REFERENCE
            wh.register_experiment(1, "snp test", "resequencing")
            wh.register_sample_group(1, 1, "g")
            wh.register_sample(1, 1, 1, "s")
            wh.import_lane_relational(1, 1, 1, reads)
            wh.align_reads(1, 1, 1)
            called = wh.call_variants(1, 1, 1, min_quality=30)
            score = score_calls(called, truth)
            assert score["recall"] > 0.7
            assert score["precision"] > 0.9
            # Variant table populated
            stored = wh.db.scalar("SELECT COUNT(*) FROM Variant")
            assert stored == len(called)
        finally:
            wh.close()
