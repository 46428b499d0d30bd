"""Probabilistic sequence extension (future-work feature)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.probabilistic import (
    PROB_SEQUENCE_UDT,
    ProbabilisticSequence,
    execute_probabilistic_query1,
    register_probabilistic_extensions,
)
from repro.engine import Database
from repro.engine.errors import UdfError
from repro.genomics.quality import encode_phred


def seq_with_quality(bases, scores):
    return ProbabilisticSequence(bases, encode_phred(scores))


class TestModel:
    def test_length_mismatch_rejected(self):
        with pytest.raises(UdfError):
            ProbabilisticSequence("ACGT", "II")

    def test_error_probabilities(self):
        prob_seq = seq_with_quality("AC", [10, 20])
        assert prob_seq.error_probabilities == pytest.approx([0.1, 0.01])

    def test_match_probability_exact(self):
        prob_seq = seq_with_quality("AC", [20, 20])
        assert prob_seq.match_probability("AC") == pytest.approx(0.99**2)

    def test_match_probability_one_substitution(self):
        prob_seq = seq_with_quality("AC", [20, 20])
        expected = 0.99 * (0.01 / 3)
        assert prob_seq.match_probability("AG") == pytest.approx(expected)

    def test_match_probability_length_mismatch_zero(self):
        assert seq_with_quality("AC", [20, 20]).match_probability("A") == 0.0

    @given(
        st.text(alphabet="ACGTN", min_size=1, max_size=40),
        st.lists(st.integers(2, 60), min_size=1, max_size=40),
    )
    def test_udt_round_trip_property(self, bases, scores):
        scores = (scores * 40)[: len(bases)]
        prob_seq = seq_with_quality(bases, scores)
        raw = PROB_SEQUENCE_UDT.serialize(prob_seq)
        assert PROB_SEQUENCE_UDT.deserialize(raw) == prob_seq

    def test_udt_accepts_tuple(self):
        raw = PROB_SEQUENCE_UDT.serialize(("ACGT", "IIII"))
        assert PROB_SEQUENCE_UDT.deserialize(raw).bases == "ACGT"


class TestSqlIntegration:
    @pytest.fixture
    def db(self):
        with Database() as database:
            register_probabilistic_extensions(database)
            database.execute(
                """
                CREATE TABLE reads (
                    id INT PRIMARY KEY,
                    seq VARCHAR(50),
                    quals VARCHAR(50)
                )
                """
            )
            database.execute(
                "INSERT INTO reads VALUES "
                "(1, 'ACGT', 'IIII'), (2, 'ACGT', '!!!!'), (3, 'TTTT', 'IIII')"
            )
            yield database

    def test_sequence_reliability_udf(self, db):
        rows = db.query(
            "SELECT id, SequenceReliability(quals) FROM reads ORDER BY id"
        )
        assert rows[0][1] > 0.99  # all-I (q40)
        assert rows[1][1] == pytest.approx(0.0, abs=1e-9)  # all-! (q0)

    def test_expected_mismatches_udf(self, db):
        value = db.scalar(
            "SELECT ExpectedMismatches(quals) FROM reads WHERE id = 2"
        )
        assert value == pytest.approx(4.0)

    def test_base_error_probability_udf(self, db):
        value = db.scalar(
            "SELECT BaseErrorProbability(quals, 1) FROM reads WHERE id = 1"
        )
        assert value == pytest.approx(1e-4)
        assert db.scalar(
            "SELECT BaseErrorProbability(quals, 99) FROM reads WHERE id = 1"
        ) is None

    def test_prob_match_udf_in_where(self, db):
        rows = db.query(
            """
            SELECT id FROM reads
            WHERE ProbMatch(seq, quals, 'ACGT') > 0.5
            """
        )
        assert rows == [(1,)]

    def test_prob_sequence_column(self, db):
        db.execute("CREATE TABLE p (id INT PRIMARY KEY, ps ProbSequence)")
        db.table("p").insert((1, ProbabilisticSequence("ACGTN", "IIII!")))
        value = db.query("SELECT ps FROM p")[0][0]
        assert value.bases == "ACGTN"
        assert value.quality == "IIII!"


class TestProbabilisticQuery1:
    def test_expected_counts_discount_shaky_reads(self, reference, genes):
        from repro.core import GenomicsWarehouse
        from repro.genomics import simulate_dge_lane

        wh = GenomicsWarehouse()
        try:
            wh.load_reference(reference)
            wh.load_genes(genes)
            wh.register_experiment(1, "x", "dge")
            wh.register_sample_group(1, 1, "g")
            wh.register_sample(1, 1, 1, "s")
            reads = list(simulate_dge_lane(reference, genes, 1500, seed=5))
            wh.import_lane_relational(1, 1, 1, reads)
            register_probabilistic_extensions(wh.db)
            rows = execute_probabilistic_query1(wh.db, 1, 1, 1)
            assert rows
            for _seq, frequency, expected in rows:
                assert 0.0 <= expected <= frequency
            # ordering is by expected count, descending
            expected_counts = [e for _s, _f, e in rows]
            assert expected_counts == sorted(expected_counts, reverse=True)
        finally:
            wh.close()
