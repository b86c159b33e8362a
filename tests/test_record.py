"""Tests for record serialization."""

from datetime import date

import pytest
from hypothesis import given, strategies as st

from repro.storage import RecordError, deserialize_row, serialize_row
from repro.types import DataType, schema_of

SCHEMA = schema_of(
    "t",
    ("a", DataType.INT),
    ("b", DataType.FLOAT),
    ("c", DataType.TEXT),
    ("d", DataType.BOOL),
    ("e", DataType.DATE),
)


def roundtrip(row):
    return deserialize_row(SCHEMA, serialize_row(SCHEMA, row))


class TestRoundtrip:
    def test_simple(self):
        row = (1, 2.5, "hello", True, date(2001, 9, 9))
        assert roundtrip(row) == row

    def test_all_nulls(self):
        row = (None,) * 5
        assert roundtrip(row) == row

    def test_mixed_nulls(self):
        row = (7, None, "", None, date(1, 1, 1))
        assert roundtrip(row) == row

    def test_unicode_text(self):
        row = (0, 0.0, "héllo wörld ☃", False, date(2020, 1, 1))
        assert roundtrip(row) == row

    def test_negative_and_extreme_ints(self):
        for v in (-1, -(2**62), 2**62, 0):
            assert roundtrip((v, 0.0, "", False, date(1970, 1, 1)))[0] == v

    def test_special_floats(self):
        out = roundtrip((0, float("inf"), "", False, date(1970, 1, 1)))
        assert out[1] == float("inf")

    def test_quote_in_text(self):
        assert roundtrip((0, 0.0, "a'b''c", False, date(1970, 1, 1)))[2] == "a'b''c"


values = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.one_of(st.none(), st.floats(allow_nan=False)),
    st.one_of(st.none(), st.text(max_size=200)),
    st.one_of(st.none(), st.booleans()),
    st.one_of(
        st.none(),
        st.dates(min_value=date(1, 1, 1), max_value=date(9999, 12, 31)),
    ),
)


class TestProperties:
    @given(values)
    def test_roundtrip_any_row(self, row):
        assert roundtrip(row) == row


class TestErrors:
    def test_truncated_payload(self):
        data = serialize_row(SCHEMA, (1, 2.0, "abc", True, date(2000, 1, 1)))
        with pytest.raises(RecordError):
            deserialize_row(SCHEMA, data[:-2])

    def test_trailing_garbage(self):
        data = serialize_row(SCHEMA, (1, 2.0, "abc", True, date(2000, 1, 1)))
        with pytest.raises(RecordError):
            deserialize_row(SCHEMA, data + b"xx")

    def test_empty_bytes(self):
        with pytest.raises(RecordError):
            deserialize_row(SCHEMA, b"")

    def test_oversized_text(self):
        with pytest.raises(RecordError):
            serialize_row(SCHEMA, (1, 1.0, "x" * 70000, True, date(2000, 1, 1)))
