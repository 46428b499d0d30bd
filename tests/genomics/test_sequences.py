"""DNA primitives and bit packing."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.errors import TypeMismatchError
from repro.genomics.sequences import (
    PackedDna,
    complement,
    is_unambiguous,
    kmers,
    pack_2bit,
    pack_4bit,
    reverse_complement,
    unpack_2bit,
    unpack_4bit,
)

dna = st.text(alphabet="ACGT", max_size=100)
dna_with_n = st.text(alphabet="ACGTN", max_size=100)


class TestBasics:
    def test_complement(self):
        assert complement("ACGT") == "TGCA"
        assert complement("N") == "N"

    def test_reverse_complement(self):
        assert reverse_complement("ATGC") == "GCAT"
        assert reverse_complement("") == ""

    @given(dna)
    def test_revcomp_is_involution(self, seq):
        assert reverse_complement(reverse_complement(seq)) == seq

    def test_ambiguity_helpers(self):
        assert is_unambiguous("ACGT")
        assert not is_unambiguous("ACGN")

    def test_kmers(self):
        assert list(kmers("ACGTA", 3)) == ["ACG", "CGT", "GTA"]
        assert list(kmers("AC", 3)) == []


class TestTwoBitPacking:
    @pytest.mark.parametrize("seq", ["", "A", "ACGT", "ACGTA", "T" * 37])
    def test_round_trip(self, seq):
        assert unpack_2bit(pack_2bit(seq)) == seq

    def test_density(self):
        # 4 bases per byte plus the 4-byte length header
        packed = pack_2bit("A" * 100)
        assert len(packed) == 4 + 25

    def test_rejects_ambiguous(self):
        with pytest.raises(TypeMismatchError):
            pack_2bit("ACGN")

    @given(dna)
    def test_round_trip_property(self, seq):
        assert unpack_2bit(pack_2bit(seq)) == seq


class TestFourBitPacking:
    @pytest.mark.parametrize("seq", ["", "N", "ACGTN", "RYSWKM", "A" * 33])
    def test_round_trip(self, seq):
        assert unpack_4bit(pack_4bit(seq)) == seq

    def test_density(self):
        packed = pack_4bit("N" * 100)
        assert len(packed) == 4 + 50

    def test_rejects_unknown_symbol(self):
        with pytest.raises(TypeMismatchError):
            pack_4bit("ACGX")

    @given(dna_with_n)
    def test_round_trip_property(self, seq):
        assert unpack_4bit(pack_4bit(seq)) == seq


class TestPackedDna:
    def test_pure_sequence_uses_2bit(self):
        raw = PackedDna("ACGTACGT").serialize()
        assert raw[0] == 2

    def test_ambiguous_sequence_uses_4bit(self):
        raw = PackedDna("ACGTN").serialize()
        assert raw[0] == 4

    @given(dna_with_n)
    def test_round_trip_property(self, seq):
        packed = PackedDna(seq)
        assert PackedDna.deserialize(packed.serialize()) == packed

    def test_quarter_size_claim(self):
        """The paper's future-work estimate: ~4x smaller than text."""
        seq = "ACGT" * 100
        assert len(PackedDna(seq).serialize()) < len(seq) / 3.5

    def test_str_and_len(self):
        packed = PackedDna("ACGT")
        assert str(packed) == "ACGT" and len(packed) == 4

    def test_empty_payload_rejected(self):
        with pytest.raises(TypeMismatchError):
            PackedDna.deserialize(b"")

    def test_bad_mode_rejected(self):
        with pytest.raises(TypeMismatchError):
            PackedDna.deserialize(b"\x07abc")
