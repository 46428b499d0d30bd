"""Row serialisation: plain and ROW-compressed formats."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.schema import Column, TableSchema
from repro.engine.storage.serializer import (
    RowSerializer,
    encode_varint,
    pack_int_minimal,
    read_varint,
    unpack_int_minimal,
    write_varint,
)
from repro.engine.types import (
    MAX,
    bigint_type,
    char_type,
    float_type,
    int_type,
    varbinary_type,
    varchar_type,
)


def make_schema():
    return TableSchema(
        "t",
        [
            Column("id", int_type(), nullable=False),
            Column("big", bigint_type()),
            Column("name", varchar_type(50)),
            Column("fixed", char_type(8)),
            Column("score", float_type()),
            Column("blob", varbinary_type(MAX)),
        ],
        primary_key=["id"],
    )


ROWS = [
    (1, 2**40, "alpha", "abc     ", 1.5, b"\x00\xff"),
    (2, None, None, None, None, None),
    (3, -5, "", "        ", -0.0, b""),
    (2**31 - 1, -(2**63), "x" * 50, "12345678", 1e300, bytes(range(256))),
]


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**60])
    def test_round_trip(self, value):
        buf = bytearray()
        write_varint(value, buf)
        decoded, pos = read_varint(bytes(buf), 0)
        assert decoded == value
        assert pos == len(buf)

    def test_encode_varint_matches_write(self):
        buf = bytearray()
        write_varint(777, buf)
        assert encode_varint(777) == bytes(buf)

    def test_negative_rejected(self):
        from repro.engine.errors import StorageError

        with pytest.raises(StorageError):
            write_varint(-1, bytearray())

    @given(st.integers(min_value=0, max_value=2**64))
    def test_round_trip_property(self, value):
        decoded, _ = read_varint(encode_varint(value), 0)
        assert decoded == value


class TestMinimalInts:
    @pytest.mark.parametrize(
        "value", [0, 1, -1, 127, 128, -128, -129, 2**31, -(2**63)]
    )
    def test_round_trip(self, value):
        assert unpack_int_minimal(pack_int_minimal(value)) == value

    def test_zero_is_empty(self):
        assert pack_int_minimal(0) == b""

    def test_small_values_are_one_byte(self):
        assert len(pack_int_minimal(5)) == 1
        assert len(pack_int_minimal(-5)) == 1

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_round_trip_property(self, value):
        assert unpack_int_minimal(pack_int_minimal(value)) == value


class TestPlainFormat:
    @pytest.mark.parametrize("row", ROWS)
    def test_round_trip(self, row):
        serializer = RowSerializer(make_schema(), row_compression=False)
        assert serializer.deserialize(serializer.serialize(row)) == row

    def test_nulls_encoded_in_bitmap_only(self):
        serializer = RowSerializer(make_schema())
        all_null = (1, None, None, None, None, None)
        some = (1, 5, "abc", "x       ", 1.0, b"zz")
        assert len(serializer.serialize(all_null)) < len(
            serializer.serialize(some)
        )


class TestRowCompressedFormat:
    @pytest.mark.parametrize("row", ROWS)
    def test_round_trip(self, row):
        serializer = RowSerializer(make_schema(), row_compression=True)
        assert serializer.deserialize(serializer.serialize(row)) == row

    def test_compression_shrinks_small_ints(self):
        plain = RowSerializer(make_schema(), row_compression=False)
        compressed = RowSerializer(make_schema(), row_compression=True)
        row = (1, 2, "ab", "ab      ", 1.0, b"x")
        assert len(compressed.serialize(row)) < len(plain.serialize(row))

    def test_char_trailing_spaces_trimmed_and_restored(self):
        serializer = RowSerializer(make_schema(), row_compression=True)
        row = (1, None, None, "ab      ", None, None)
        record = serializer.serialize(row)
        assert serializer.deserialize(record)[3] == "ab      "
        # trimmed on disk: much shorter than the 8 declared chars
        assert len(record) < 8 + 2

    def test_split_join_round_trip(self):
        serializer = RowSerializer(make_schema(), row_compression=True)
        for row in ROWS:
            record = serializer.serialize(row)
            nulls, fields = serializer.split_compressed(record)
            assert serializer.join_compressed(nulls, fields) == record

    def test_uncompressed_size_reported(self):
        serializer = RowSerializer(make_schema(), row_compression=True)
        plain = RowSerializer(make_schema(), row_compression=False)
        assert serializer.uncompressed_size(ROWS[:1]) == len(
            plain.serialize(ROWS[0])
        )
        assert serializer.uncompressed_size(ROWS) == sum(
            len(plain.serialize(row)) for row in ROWS
        )


@st.composite
def random_rows(draw):
    return (
        draw(st.integers(min_value=-(2**31), max_value=2**31 - 1)),
        draw(st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1))),
        draw(st.one_of(st.none(), st.text(max_size=50))),
        draw(
            st.one_of(
                st.none(),
                st.text(
                    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                    min_size=8,
                    max_size=8,
                ),
            )
        ),
        draw(st.one_of(st.none(), st.floats(allow_nan=False))),
        draw(st.one_of(st.none(), st.binary(max_size=64))),
    )


class TestPropertyRoundTrips:
    @given(random_rows())
    def test_plain(self, row):
        serializer = RowSerializer(make_schema())
        assert serializer.deserialize(serializer.serialize(row)) == row

    @given(random_rows())
    def test_compressed(self, row):
        serializer = RowSerializer(make_schema(), row_compression=True)
        assert serializer.deserialize(serializer.serialize(row)) == row
