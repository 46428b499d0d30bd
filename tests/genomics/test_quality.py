"""Phred quality scores."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.engine.errors import TypeMismatchError
from repro.genomics.quality import (
    MAX_SCORE,
    PHRED33,
    PHRED64,
    decode_phred,
    encode_phred,
    phred_to_error_probability,
)


class TestConversions:
    @pytest.mark.parametrize(
        "p,q", [(1.0, 0), (0.1, 10), (0.01, 20), (0.001, 30)]
    )
    def test_canonical_values(self, p, q):
        assert phred_to_error_probability(q) == pytest.approx(p)

    def test_inverse(self):
        assert phred_to_error_probability(20) == pytest.approx(0.01)

    @given(st.integers(0, 60))
    def test_round_trip_property(self, q):
        assert round(-10 * math.log10(phred_to_error_probability(q))) == q

    def test_negative_score_rejected(self):
        with pytest.raises(TypeMismatchError):
            phred_to_error_probability(-1)


class TestAsciiEncoding:
    def test_phred33(self):
        assert encode_phred([0, 1, 40], PHRED33) == "!\"I"
        assert decode_phred("!\"I", PHRED33) == [0, 1, 40]

    def test_phred64(self):
        assert encode_phred([0, 40], PHRED64) == "@h"
        assert decode_phred("@h", PHRED64) == [0, 40]

    def test_paper_figure3_quality_line(self):
        """The example quality string from Figure 3 decodes cleanly."""
        line = ">>>>>>>>>>>>>>>6>>>>>>>;>>>>>>;>>;>;"
        scores = decode_phred(line, PHRED33)
        assert len(scores) == 36
        assert all(s >= 0 for s in scores)

    def test_out_of_range_rejected(self):
        with pytest.raises(TypeMismatchError):
            encode_phred([MAX_SCORE + 1], PHRED33)
        with pytest.raises(TypeMismatchError):
            encode_phred([-1], PHRED33)

    def test_phred64_cannot_hold_high_scores(self):
        with pytest.raises(TypeMismatchError):
            encode_phred([70], PHRED64)

    def test_decode_below_offset_rejected(self):
        with pytest.raises(TypeMismatchError):
            decode_phred("!", PHRED64)

    @given(st.lists(st.integers(0, 60), max_size=50))
    def test_round_trip_property(self, scores):
        assert decode_phred(encode_phred(scores, PHRED33), PHRED33) == scores
