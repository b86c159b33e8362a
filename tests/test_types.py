"""Tests for repro.types: data types, coercion, schemas."""

import pytest
from datetime import date

from hypothesis import given, strategies as st

from repro.expr import CmpOp, Comparison, col, compile_expr
from repro.types import (
    Column,
    DataType,
    Schema,
    SchemaError,
    TypeError_,
    byte_width,
    check_value,
    common_type,
    infer_type,
    parse_type,
    schema_of,
    value_to_float,
)


class TestParseType:
    def test_aliases(self):
        assert parse_type("INTEGER") is DataType.INT
        assert parse_type("varchar") is DataType.TEXT
        assert parse_type("Double") is DataType.FLOAT
        assert parse_type("BOOLEAN") is DataType.BOOL
        assert parse_type("date") is DataType.DATE

    def test_unknown_raises(self):
        with pytest.raises(TypeError_):
            parse_type("BLOB")


class TestCheckValue:
    def test_null_passes_all_types(self):
        for dtype in DataType:
            assert check_value(None, dtype) is None

    def test_int_accepts_integral_float(self):
        assert check_value(3.0, DataType.INT) == 3

    def test_int_rejects_fractional(self):
        with pytest.raises(TypeError_):
            check_value(3.5, DataType.INT)

    def test_int_rejects_bool(self):
        with pytest.raises(TypeError_):
            check_value(True, DataType.INT)

    def test_float_coerces_int(self):
        out = check_value(4, DataType.FLOAT)
        assert out == 4.0 and isinstance(out, float)

    def test_text_rejects_numbers(self):
        with pytest.raises(TypeError_):
            check_value(5, DataType.TEXT)

    def test_date_from_iso_string(self):
        assert check_value("2020-02-29", DataType.DATE) == date(2020, 2, 29)

    def test_bool_strict(self):
        with pytest.raises(TypeError_):
            check_value(1, DataType.BOOL)

    def test_out_of_range_values_are_type_errors(self):
        assert check_value(2**63 - 1, DataType.INT) == 2**63 - 1
        assert check_value(-(2**63), DataType.INT) == -(2**63)
        for value, dtype in (
            (2**63, DataType.INT),  # one past a 64-bit record field
            (-(2**63) - 1, DataType.INT),
            (1e300, DataType.INT),
            (10**400, DataType.FLOAT),  # float() overflows
            ("not-a-date", DataType.DATE),
        ):
            with pytest.raises(TypeError_):
                check_value(value, dtype)


class TestInferAndCommon:
    def test_bool_before_int(self):
        assert infer_type(True) is DataType.BOOL
        assert infer_type(1) is DataType.INT

    def test_common_numeric(self):
        assert common_type(DataType.INT, DataType.FLOAT) is DataType.FLOAT
        assert common_type(DataType.INT, DataType.INT) is DataType.INT

    def test_common_incompatible(self):
        with pytest.raises(TypeError_):
            common_type(DataType.INT, DataType.TEXT)


def compare(op, a, b, dtype=DataType.INT):
    """``a <op> b`` as a compiled expression evaluates it."""
    s = schema_of("t", ("a", dtype), ("b", dtype))
    return compile_expr(Comparison(op, col("a"), col("b")), s)((a, b))


class TestCompare:
    def test_null_is_unknown(self):
        assert compare(CmpOp.EQ, None, 1) is None
        assert compare(CmpOp.LT, 1, None) is None

    def test_orders(self):
        assert compare(CmpOp.LT, 1, 2) is True
        assert compare(CmpOp.GT, 2, 1) is True
        assert compare(CmpOp.EQ, "a", "a", DataType.TEXT) is True

    def test_bool_int_mismatch(self):
        s = schema_of("t", ("a", DataType.BOOL), ("b", DataType.INT))
        with pytest.raises(TypeError_):
            compile_expr(Comparison(CmpOp.EQ, col("a"), col("b")), s)


class TestRealLineMapping:
    def test_int_and_float(self):
        assert value_to_float(5, DataType.INT) == 5.0
        assert value_to_float(2.5, DataType.FLOAT) == 2.5

    def test_date_ordinal(self):
        d = date(1977, 10, 6)
        assert value_to_float(d, DataType.DATE) == float(d.toordinal())

    def test_null_raises(self):
        with pytest.raises(TypeError_):
            value_to_float(None, DataType.INT)

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_text_ordinal_respects_order(self, a, b):
        fa = value_to_float(a, DataType.TEXT)
        fb = value_to_float(b, DataType.TEXT)
        # 8-byte prefix ordinal: strict order on the real line implies
        # string order cannot be the reverse.
        if fa < fb:
            assert not (a.encode()[:8] > b.encode()[:8])

    def test_byte_widths(self):
        assert byte_width(DataType.INT) == 8
        assert byte_width(DataType.TEXT, avg_text=20) == 20


def make_schema():
    return schema_of(
        "t", ("id", DataType.INT), ("name", DataType.TEXT), ("v", DataType.FLOAT)
    )


class TestSchema:
    def test_lookup_bare_and_qualified(self):
        s = make_schema()
        assert s.index_of("id") == 0
        assert s.index_of("t.name") == 1
        assert s.column("v").dtype is DataType.FLOAT

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            make_schema().index_of("nope")
        with pytest.raises(SchemaError):
            make_schema().index_of("x.id")

    def test_ambiguous_bare_name(self):
        s = make_schema().concat(make_schema().renamed("u"))
        with pytest.raises(SchemaError, match="ambiguous"):
            s.index_of("id")
        assert s.index_of("u.id") == 3

    def test_duplicate_qualified_rejected(self):
        with pytest.raises(SchemaError):
            make_schema().concat(make_schema())

    def test_project_and_concat(self):
        s = make_schema()
        p = Schema(s.column(n) for n in ("v", "id"))  # as a projection builds it
        assert p.names() == ["v", "id"]
        c = s.concat(s.renamed("u"))
        assert len(c) == 6

    def test_renamed(self):
        s = make_schema().renamed("alias")
        assert next(iter(s)).qualified_name == "alias.id"

    def test_validate_row_checks_types(self):
        s = make_schema()
        assert s.validate_row((1, "x", 2)) == (1, "x", 2.0)
        with pytest.raises(TypeError_):
            s.validate_row((1, "x"))
        with pytest.raises(TypeError_):
            s.validate_row(("bad", "x", 2.0))

    def test_non_nullable(self):
        s = Schema([Column("id", DataType.INT, "t", nullable=False)])
        with pytest.raises(TypeError_):
            s.validate_row((None,))

    def test_equality_and_hash(self):
        assert make_schema() == make_schema()
        assert hash(make_schema()) == hash(make_schema())
        assert make_schema() != make_schema().renamed("u")

    def test_estimated_row_bytes_positive(self):
        assert make_schema().estimated_row_bytes() > 0

    def test_positions(self):
        s = make_schema()
        assert [s.index_of(n) for n in ("name", "id")] == [1, 0]
