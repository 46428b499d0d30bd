"""Q-gram index: exact and approximate sequence search."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.genomics.qgram import QGramError, QGramIndex, SequenceMatch


def brute_force(sequences, pattern, max_mismatches):
    """Reference implementation: scan every window."""
    out = set()
    for sequence_id, sequence in sequences.items():
        for start in range(len(sequence) - len(pattern) + 1):
            window = sequence[start : start + len(pattern)]
            mismatches = sum(1 for a, b in zip(pattern, window) if a != b)
            if mismatches <= max_mismatches:
                out.add((sequence_id, start, mismatches))
    return out


def as_set(matches):
    return {(m.sequence_id, m.position, m.mismatches) for m in matches}


@pytest.fixture
def small_index():
    index = QGramIndex(q=4)
    index.add(1, "ACGTACGTAAAA")
    index.add(2, "TTTTACGTCCCC")
    index.add(3, "GGGGGGGGGGGG")
    return index


class TestBuild:
    def test_counts(self, small_index):
        assert len(small_index) == 3

    def test_duplicate_id_rejected(self, small_index):
        with pytest.raises(QGramError):
            small_index.add(1, "ACGT")

    def test_bad_q(self):
        with pytest.raises(QGramError):
            QGramIndex(q=1)

    def test_sequence_lookup(self, small_index):
        assert small_index.sequence(2) == "TTTTACGTCCCC"
        with pytest.raises(QGramError):
            small_index.sequence(99)


class TestExactSearch:
    def test_finds_all_occurrences(self, small_index):
        hits = as_set(small_index.search_exact("ACGT"))
        assert hits == {(1, 0, 0), (1, 4, 0), (2, 4, 0)}

    def test_absent_pattern(self, small_index):
        assert list(small_index.search_exact("ACGTTTTTT")) == []

    def test_pattern_longer_than_gram(self, small_index):
        hits = as_set(small_index.search_exact("ACGTACGT"))
        assert hits == {(1, 0, 0)}

    def test_short_pattern_falls_back_to_scan(self, small_index):
        hits = as_set(small_index.search_exact("GG"))
        assert all(seq_id == 3 for seq_id, _p, _m in hits)
        assert len(hits) == 11


class TestApproximateSearch:
    def test_zero_mismatch_equals_exact(self, small_index):
        assert as_set(small_index.search_approximate("ACGT", 0)) == as_set(
            small_index.search_exact("ACGT")
        )

    def test_one_mismatch(self, small_index):
        hits = as_set(small_index.search_approximate("ACGTACGA", 1))
        assert (1, 0, 1) in hits

    def test_matches_brute_force_on_random_data(self):
        rng = random.Random(13)
        sequences = {
            i: "".join(rng.choices("ACGT", k=60)) for i in range(30)
        }
        index = QGramIndex(q=5)
        for sequence_id, sequence in sequences.items():
            index.add(sequence_id, sequence)
        pattern = sequences[7][10:30]
        for k in (0, 1, 2):
            assert as_set(index.search_approximate(pattern, k)) == (
                brute_force(sequences, pattern, k)
            )

    def test_negative_mismatches_rejected(self, small_index):
        with pytest.raises(QGramError):
            list(small_index.search_approximate("ACGT", -1))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="ACGT", min_size=12, max_size=40),
            min_size=1,
            max_size=10,
        ),
        st.text(alphabet="ACGT", min_size=10, max_size=14),
        st.integers(0, 2),
    )
    def test_equals_brute_force_property(self, seqs, pattern, k):
        sequences = dict(enumerate(seqs))
        index = QGramIndex(q=4)
        for sequence_id, sequence in sequences.items():
            index.add(sequence_id, sequence)
        assert as_set(index.search_approximate(pattern, k)) == (
            brute_force(sequences, pattern, k)
        )
