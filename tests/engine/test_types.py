"""Tests for the SQL type system."""

import uuid

import pytest
from hypothesis import given, strategies as st

from repro.engine.errors import TypeMismatchError
from repro.engine.types import (
    MAX,
    SqlType,
    bigint_type,
    binary_type,
    bit_type,
    char_type,
    datetime_type,
    float_type,
    guid_type,
    int_type,
    smallint_type,
    tinyint_type,
    varbinary_type,
    varchar_type,
)


class TestValidation:
    def test_int_accepts_in_range(self):
        assert int_type().validate(42) == 42
        assert int_type().validate(-(2**31)) == -(2**31)
        assert int_type().validate(2**31 - 1) == 2**31 - 1

    def test_int_rejects_out_of_range(self):
        with pytest.raises(TypeMismatchError):
            int_type().validate(2**31)
        with pytest.raises(TypeMismatchError):
            int_type().validate(-(2**31) - 1)

    def test_bigint_range(self):
        assert bigint_type().validate(2**62) == 2**62
        with pytest.raises(TypeMismatchError):
            bigint_type().validate(2**63)

    def test_tinyint_is_unsigned(self):
        assert tinyint_type().validate(255) == 255
        with pytest.raises(TypeMismatchError):
            tinyint_type().validate(-1)

    def test_bit_only_zero_one(self):
        assert bit_type().validate(1) == 1
        with pytest.raises(TypeMismatchError):
            bit_type().validate(2)

    def test_int_rejects_string(self):
        with pytest.raises(TypeMismatchError):
            int_type().validate("7")

    def test_int_accepts_integral_float(self):
        assert int_type().validate(7.0) == 7

    def test_int_rejects_fractional_float(self):
        with pytest.raises(TypeMismatchError):
            int_type().validate(7.5)

    def test_float_coerces_int(self):
        value = float_type().validate(3)
        assert value == 3.0 and isinstance(value, float)

    def test_float_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            float_type().validate(True)

    def test_null_always_passes(self):
        for factory in (int_type, float_type, guid_type, datetime_type):
            assert factory().validate(None) is None
        assert varchar_type(5).validate(None) is None

    def test_varchar_length_enforced(self):
        assert varchar_type(5).validate("abc") == "abc"
        with pytest.raises(TypeMismatchError):
            varchar_type(5).validate("abcdef")

    def test_varchar_max_unbounded(self):
        long_text = "x" * 100_000
        assert varchar_type(MAX).validate(long_text) == long_text

    def test_char_pads_to_length(self):
        assert char_type(4).validate("ab") == "ab  "

    def test_binary_accepts_bytearray(self):
        value = varbinary_type(10).validate(bytearray(b"abc"))
        assert value == b"abc" and isinstance(value, bytes)

    def test_binary_length_enforced(self):
        with pytest.raises(TypeMismatchError):
            binary_type(2).validate(b"abc")

    def test_guid_accepts_many_forms(self):
        guid = uuid.uuid4()
        assert guid_type().validate(guid) == guid
        assert guid_type().validate(str(guid)) == guid
        assert guid_type().validate(guid.bytes) == guid

    def test_guid_rejects_junk(self):
        with pytest.raises(TypeMismatchError):
            guid_type().validate("not-a-guid")


class TestEncoding:
    @pytest.mark.parametrize(
        "sql_type,value",
        [
            (int_type(), 12345),
            (int_type(), -1),
            (bigint_type(), 2**40),
            (smallint_type(), -32768),
            (tinyint_type(), 200),
            (float_type(), 3.14159),
            (datetime_type(), 1_600_000_000.5),
            (varchar_type(50), "hello world"),
            (char_type(6), "ab    "),
            (varbinary_type(MAX), b"\x00\x01\xff"),
        ],
    )
    def test_round_trip(self, sql_type, value):
        assert sql_type.decode(sql_type.encode(value)) == value

    def test_guid_round_trip(self):
        guid = uuid.uuid4()
        assert guid_type().decode(guid_type().encode(guid)) == guid

    def test_fixed_widths(self):
        assert int_type().fixed_width == 4
        assert bigint_type().fixed_width == 8
        assert guid_type().fixed_width == 16
        assert char_type(7).fixed_width == 7
        assert varchar_type(7).fixed_width is None

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_int_encode_round_trip_property(self, value):
        assert int_type().decode(int_type().encode(value)) == value

    @given(st.text(max_size=40))
    def test_varchar_round_trip_property(self, text):
        sql_type = varchar_type(MAX)
        assert sql_type.decode(sql_type.encode(text)) == text


class TestClassification:
    def test_filestream_flag(self):
        plain = varbinary_type(MAX)
        streamed = varbinary_type(MAX, filestream=True)
        assert not plain.filestream
        assert streamed.filestream
        assert "FILESTREAM" in str(streamed)

    def test_display(self):
        assert str(varchar_type(MAX)) == "VARCHAR(MAX)"
        assert str(char_type(3)) == "CHAR(3)"
        assert str(int_type()) == "INT"
