"""The paper's Queries 1-3 against reference implementations."""

from collections import Counter

import pytest

from repro.core import GenomicsWarehouse, queries
from repro.genomics.consensus import Pileup


@pytest.fixture(scope="module")
def dge_warehouse(reference, genes, dge_reads):
    wh = GenomicsWarehouse()
    wh.load_reference(reference)
    wh.load_genes(genes)
    wh.register_experiment(1, "dge", "dge")
    wh.register_sample_group(1, 1, "grp")
    wh.register_sample(1, 1, 1, "smp")
    wh.import_lane_relational(1, 1, 1, dge_reads)
    wh.bin_unique_tags(1, 1, 1)
    wh.align_tags(1, 1, 1)
    yield wh
    wh.close()


@pytest.fixture(scope="module")
def reseq_warehouse(reference, reseq_reads):
    wh = GenomicsWarehouse()
    wh.load_reference(reference)
    wh.register_experiment(1, "1000g", "resequencing")
    wh.register_sample_group(1, 1, "grp")
    wh.register_sample(1, 1, 1, "smp")
    wh.import_lane_relational(1, 1, 1, reseq_reads)
    wh.align_reads(1, 1, 1)
    yield wh
    wh.close()


class TestQuery1:
    def reference_binning(self, reads):
        counts = Counter(
            r.sequence for r in reads if "N" not in r.sequence
        )
        return counts

    def test_matches_reference_counter(self, dge_warehouse, dge_reads):
        expected = self.reference_binning(dge_reads)
        rows = queries.execute_query1(dge_warehouse.db, 1, 1, 1)
        got = {seq: freq for _rank, freq, seq in rows}
        assert got == dict(expected)

    def test_ranks_are_dense_and_frequency_ordered(
        self, dge_warehouse, dge_reads
    ):
        rows = queries.execute_query1(dge_warehouse.db, 1, 1, 1)
        ranks = [rank for rank, _f, _s in rows]
        assert sorted(ranks) == list(range(1, len(rows) + 1))
        by_rank = sorted(rows)
        freqs = [f for _r, f, _s in by_rank]
        assert freqs == sorted(freqs, reverse=True)

    def test_filters_uncertain_reads(self, dge_warehouse):
        rows = queries.execute_query1(dge_warehouse.db, 1, 1, 1)
        assert all("N" not in seq for _r, _f, seq in rows)

    def test_wrong_sample_is_empty(self, dge_warehouse):
        assert queries.execute_query1(dge_warehouse.db, 9, 9, 9) == []

    def test_maxdop_hint_respected(self, dge_warehouse):
        serial = queries.execute_query1(dge_warehouse.db, 1, 1, 1, maxdop=1)
        parallel = queries.execute_query1(dge_warehouse.db, 1, 1, 1, maxdop=4)
        # frequency-per-tag must be identical; rank assignment may break
        # frequency ties differently between the serial and parallel plans
        assert {s: f for _r, f, s in serial} == {
            s: f for _r, f, s in parallel
        }
        assert sorted(r for r, _f, _s in parallel) == list(
            range(1, len(parallel) + 1)
        )

    def test_an_execution_leaves_the_plan_unchanged(self, reference, genes):
        """No statistic estimates ``CHARINDEX('N', short_read_seq) = 0``,
        so the Filter above Query 1's seek gets the 0.5 default, and
        running Query 1 (which passes almost every read) must not change
        that: the EXPLAIN text is the same before and after. The lane is
        large enough for the seek to be estimated above one row."""
        from repro.genomics.simulate import simulate_dge_lane

        dge_reads = list(
            simulate_dge_lane(reference, genes, n_reads=5000, seed=103)
        )
        sql = queries.query1_binning_sql(1, 1, 1)
        with GenomicsWarehouse() as wh:
            wh.load_reference(reference)
            wh.load_genes(genes)
            wh.register_experiment(1, "dge", "dge")
            wh.register_sample_group(1, 1, "grp")
            wh.register_sample(1, 1, 1, "smp")
            wh.import_lane_relational(1, 1, 1, dge_reads)

            cold = wh.db.explain(sql)
            assert "CHARINDEX" in cold
            assert queries.execute_query1(wh.db, 1, 1, 1)
            assert wh.db.explain(sql) == cold


class TestQuery2:
    def test_populates_gene_expression(self, dge_warehouse):
        written = dge_warehouse.compute_gene_expression(1, 1, 1)
        assert written > 0
        rows = dge_warehouse.db.query(
            "SELECT ge_g_id, total_freq, tag_count FROM GeneExpression"
        )
        assert len(rows) == written
        assert all(total >= count for _g, total, count in rows)

    def test_matches_manual_join(self, dge_warehouse):
        db = dge_warehouse.db
        tags = {
            t_id: freq
            for (_e, _sg, _s, t_id, _seq, freq) in db.table("Tag").scan()
        }
        expected = {}
        for row in db.table("Alignment").scan():
            g_id, t_id = row[7], row[5]
            if g_id is None or t_id is None:
                continue
            total, count = expected.get(g_id, (0, 0))
            expected[g_id] = (total + tags[t_id], count + 1)
        got = {
            g: (total, count)
            for g, total, count in db.query(
                "SELECT ge_g_id, total_freq, tag_count FROM GeneExpression"
            )
        }
        assert got == expected

    def test_expressed_genes_rank_plausibly(self, dge_warehouse):
        rows = dge_warehouse.db.query(
            """
            SELECT TOP 3 ge_g_id, total_freq FROM GeneExpression
            ORDER BY total_freq DESC
            """
        )
        # the Zipf head should be clearly above the tail
        totals = [t for _g, t in rows]
        assert totals[0] >= totals[-1]


class TestQuery3:
    def test_sliding_matches_pivot(self, reseq_warehouse):
        sliding = dict(queries.execute_query3_sliding(reseq_warehouse.db, 1, 1, 1))
        pivot = dict(queries.execute_query3_pivot(reseq_warehouse.db, 1, 1, 1))
        assert set(sliding) == set(pivot)
        for rs_id in sliding:
            assert sliding[rs_id].start == pivot[rs_id].start
            assert sliding[rs_id].sequence == pivot[rs_id].sequence

    def test_matches_direct_pileup(self, reseq_warehouse):
        """The SQL pipeline must equal a hand-built pileup over the same
        alignments + reads, on the called bases *and* their qualities
        (``ConsensusPiece.__eq__`` ignores the qualities, SNP calling
        does not), with the plan sanitizer armed and silent."""
        db = reseq_warehouse.db
        reads = {
            row[3]: (row[8], row[9]) for row in db.table("Read").scan()
        }
        lengths = dict(db.query("SELECT rs_id, length FROM ReferenceSequence"))
        pileups = {
            rs_id: Pileup(str(rs_id), length)
            for rs_id, length in lengths.items()
        }
        from repro.genomics.sequences import reverse_complement

        for row in db.table("Alignment").scan():
            r_id, rs_id, pos, strand = row[4], row[6], row[8], row[9]
            seq, quals = reads[r_id]
            if strand == "-":
                seq = reverse_complement(seq)
                quals = quals[::-1]
            pileups[rs_id].add_alignment(
                pos, seq, [ord(c) - 33 for c in quals]
            )
        expected = {
            rs_id: pileup.call()
            for rs_id, pileup in pileups.items()
            if pileup.observation_count()
        }
        assert expected
        prior = db.plan_verify
        db.execute("SET PLAN_VERIFY ON")
        try:
            sql_result = dict(queries.execute_query3_sliding(db, 1, 1, 1))
            assert set(sql_result) == set(expected)
            for rs_id, called in expected.items():
                piece = sql_result[rs_id]
                span = slice(piece.start, piece.start + len(piece.sequence))
                assert piece.sequence == called.sequence[span]
                assert list(piece.qualities) == called.qualities[span]
                # beyond the piece the pileup has nothing either
                assert set(called.sequence[: span.start]) <= {"N"}
                assert set(called.sequence[span.stop :]) <= {"N"}
                assert any(piece.qualities)  # non-vacuous
            assert [
                row for row in db.lint_rows() if row[2].startswith("PLAN-")
            ] == []
        finally:
            db.plan_verify = prior

    def test_consensus_close_to_reference(self, reseq_warehouse, reference):
        """High-coverage clean reads: the consensus should mostly agree
        with the genome it was sampled from."""
        results = reseq_warehouse.call_consensus(1, 1, 1)
        names = {v: k for k, v in reseq_warehouse.reference_names.items()}
        by_name = {r.name: r.sequence for r in reference}
        for rs_id, piece in results:
            genome = by_name[names[rs_id]]
            span = genome[piece.start : piece.start + len(piece.sequence)]
            called = [
                (a, b)
                for a, b in zip(piece.sequence, span)
                if a != "N"
            ]
            agree = sum(1 for a, b in called if a == b)
            assert agree / len(called) > 0.97

    def test_consensus_rows_stored(self, reseq_warehouse):
        reseq_warehouse.call_consensus(1, 1, 1)
        rows = reseq_warehouse.db.query(
            "SELECT c_rs_id, c_start FROM Consensus WHERE c_e_id = 1"
        )
        assert len(rows) >= 1

    def test_plan_uses_stream_aggregate_without_sort(self, reseq_warehouse):
        plan = reseq_warehouse.db.explain(
            queries.query3_sliding_window_sql(1, 1, 1)
        )
        assert "Stream Aggregate" in plan
        assert "Sort" not in plan
        assert "Clustered Index Seek [Alignment]" in plan
