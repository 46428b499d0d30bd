"""In-database alignment TVF / procedure and q-gram search TVF."""

import pytest

from repro.core import GenomicsWarehouse, register_alignment_extensions
from repro.engine.errors import UdfError


@pytest.fixture(scope="module")
def warehouse(reference, genes, dge_reads):
    wh = GenomicsWarehouse()
    wh.load_reference(reference)
    wh.load_genes(genes)
    wh.register_experiment(1, "x", "dge")
    wh.register_sample_group(1, 1, "g")
    wh.register_sample(1, 1, 1, "s")
    wh.import_lane_relational(1, 1, 1, dge_reads[:600])
    register_alignment_extensions(wh.db)
    yield wh
    wh.close()


class TestAlignTvf:
    def test_select_from_tvf(self, warehouse):
        rows = warehouse.db.query(
            "SELECT r_id, rs_id, pos, strand FROM AlignShortReads(1, 1, 1, 2)"
        )
        assert len(rows) > 500
        rs_ids = set(warehouse.reference_names.values())
        assert {r[1] for r in rows} <= rs_ids

    def test_matches_python_aligner(self, warehouse, dge_reads):
        from repro.genomics.fastq import FastqRecord

        tvf_hits = {
            r_id: (rs_id, pos, strand)
            for r_id, rs_id, pos, strand, _mm, _mapq in warehouse.db.query(
                "SELECT * FROM AlignShortReads(1, 1, 1, 2)"
            )
        }
        names = warehouse.reference_names
        for r_id, record in list(enumerate(dge_reads[:600], start=1))[:50]:
            direct = warehouse.aligner.align(
                FastqRecord(f"r_{r_id}", record.sequence, record.quality)
            )
            if direct is None:
                assert r_id not in tvf_hits
            else:
                assert tvf_hits[r_id] == (
                    names[direct.reference],
                    direct.position,
                    direct.strand,
                )

    def test_aggregation_over_tvf(self, warehouse):
        rows = warehouse.db.query(
            """
            SELECT rs_id, COUNT(*) FROM AlignShortReads(1, 1, 1, 2)
            GROUP BY rs_id ORDER BY rs_id
            """
        )
        assert sum(count for _rs, count in rows) > 500

    def test_empty_sample_yields_nothing(self, warehouse):
        assert warehouse.db.query(
            "SELECT * FROM AlignShortReads(9, 9, 9, 2)"
        ) == []


class TestAlignProcedure:
    def test_usp_align_sample_populates_alignment(self, warehouse):
        count = warehouse.db.call_procedure("usp_align_sample", 1, 1, 1, 2)
        assert count > 500
        assert warehouse.db.scalar("SELECT COUNT(*) FROM Alignment") == count
        # rows landed in clustered order: a full seek's keys ascend
        keys = [
            (row[6], row[8])
            for row in warehouse.db.table("Alignment").seek()
        ]
        assert keys == sorted(keys)

    def test_insert_select_from_tvf(self, warehouse):
        warehouse.db.execute("TRUNCATE TABLE Alignment")
        inserted = warehouse.db.execute(
            """
            INSERT INTO Alignment
                (a_e_id, a_sg_id, a_s_id, a_id, a_r_id, a_rs_id,
                 a_pos, a_strand, a_mismatches, a_mapq)
            SELECT 1, 1, 1, r_id, r_id, rs_id, pos, strand, mismatches, mapq
              FROM AlignShortReads(1, 1, 1, 2)
            """
        )
        assert inserted > 500


class TestSearchTvf:
    def test_exact_pattern(self, warehouse, dge_reads):
        pattern = dge_reads[0].sequence[:12]
        rows = warehouse.db.query(
            f"SELECT r_id, match_pos, mismatches "
            f"FROM SearchShortReads('{pattern}', 0)"
        )
        assert rows
        assert all(mm == 0 for _r, _p, mm in rows)
        # read 1 contains its own prefix at position 0
        assert any(r_id == 1 and pos == 0 for r_id, pos, _mm in rows)

    def test_approximate_superset_of_exact(self, warehouse, dge_reads):
        pattern = dge_reads[0].sequence[:12]
        exact = set(
            warehouse.db.query(
                f"SELECT r_id, match_pos FROM SearchShortReads('{pattern}', 0)"
            )
        )
        approx = set(
            warehouse.db.query(
                f"SELECT r_id, match_pos FROM SearchShortReads('{pattern}', 1)"
            )
        )
        assert exact <= approx

    def test_join_search_results_with_reads(self, warehouse, dge_reads):
        pattern = dge_reads[0].sequence[:12]
        rows = warehouse.db.query(
            f"""
            SELECT hits.r_id, lane
              FROM SearchShortReads('{pattern}', 0) AS hits
              JOIN [Read] ON (hits.r_id = [Read].r_id)
            """
        )
        assert rows

    def test_empty_pattern_rejected(self, warehouse):
        with pytest.raises(UdfError):
            warehouse.db.query("SELECT * FROM SearchShortReads('', 0)")


class TestCachesFollowTheData:
    """Both TVFs cache an index per database; an edit that keeps the row
    count must still be seen (the caches key on ``data_cookie``)."""

    @pytest.fixture
    def small(self):
        from repro.genomics.simulate import (
            generate_reference,
            simulate_resequencing_lane,
        )

        reference = generate_reference(
            n_chromosomes=1, chromosome_length=3000, seed=5
        )
        reads = list(simulate_resequencing_lane(reference, 50, seed=6))
        wh = GenomicsWarehouse()
        wh.load_reference(reference)
        wh.register_experiment(1, "x", "resequencing")
        wh.register_sample_group(1, 1, "g")
        wh.register_sample(1, 1, 1, "s")
        wh.import_lane_relational(1, 1, 1, reads)
        register_alignment_extensions(wh.db)
        yield wh, reads
        wh.close()

    def test_align_tvf_sees_an_updated_reference(self, small):
        from repro.genomics.aligner import ShortReadAligner
        from repro.genomics.fasta import FastaRecord
        from repro.genomics.simulate import generate_reference

        wh, reads = small
        sql = "SELECT COUNT(*) FROM AlignShortReads(1, 1, 1, 2)"
        assert wh.db.scalar(sql) == len(reads)
        other = generate_reference(
            n_chromosomes=1, chromosome_length=3000, seed=77
        )[0].sequence
        wh.db.execute(f"UPDATE ReferenceSequence SET seq = '{other}'")
        name = wh.db.scalar("SELECT name FROM ReferenceSequence")
        fresh = ShortReadAligner([FastaRecord(name, other)])
        expected = sum(hit is not None for hit in fresh.align_many(reads))
        assert expected < len(reads) // 2
        assert wh.db.scalar(sql) == expected

    def test_search_tvf_sees_an_updated_read(self, small):
        wh, _reads = small
        pattern = "ACGTTGCAACGTTGCA"
        sql = f"SELECT r_id FROM SearchShortReads('{pattern}', 0)"
        assert wh.db.query(sql) == []
        wh.db.execute(
            f"UPDATE Read SET short_read_seq = '{pattern}{'A' * 20}' "
            "WHERE r_id = 7"
        )
        assert wh.db.query(sql) == [(7,)]
