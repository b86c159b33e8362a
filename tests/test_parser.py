"""Tests for the SQL parser."""

import pytest

from repro.expr import (
    AggCall,
    AggFunc,
    ArithOp,
    Arithmetic,
    Between,
    BoolKind,
    BoolOp,
    CmpOp,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
)
from repro.sql import (
    AnalyzeStmt,
    CreateIndexStmt,
    CreateTableStmt,
    DropTableStmt,
    ExplainStmt,
    InsertStmt,
    ParseError,
    SelectStmt,
    parse,
    parse_expression,
)
from repro.types import DataType


class TestSelect:
    def test_minimal(self):
        s = parse("SELECT * FROM t")
        assert isinstance(s, SelectStmt)
        assert s.items[0].is_star
        assert s.from_tables[0].table == "t"

    def test_aliases(self):
        s = parse("SELECT a AS x, b y FROM t u")
        assert s.items[0].alias == "x"
        assert s.items[1].alias == "y"
        assert s.from_tables[0].binding == "u"

    def test_qualified_star(self):
        s = parse("SELECT t.*, u.a FROM t, u")
        assert s.items[0].star_qualifier == "t"

    def test_multi_table_from(self):
        s = parse("SELECT * FROM a, b, c")
        assert [t.table for t in s.from_tables] == ["a", "b", "c"]

    def test_explicit_join(self):
        s = parse("SELECT * FROM a JOIN b ON a.x = b.y JOIN c ON b.z = c.w")
        assert len(s.joins) == 2
        assert isinstance(s.joins[0].condition, Comparison)

    def test_inner_join_keyword(self):
        s = parse("SELECT * FROM a INNER JOIN b ON a.x = b.y")
        assert len(s.joins) == 1

    def test_cross_join(self):
        s = parse("SELECT * FROM a CROSS JOIN b")
        assert s.joins[0].condition is None

    def test_join_without_on_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM a JOIN b")

    def test_where_group_having_order_limit(self):
        s = parse(
            "SELECT g, COUNT(*) FROM t WHERE x > 0 GROUP BY g "
            "HAVING COUNT(*) > 1 ORDER BY g DESC LIMIT 3"
        )
        assert s.where is not None
        assert len(s.group_by) == 1
        assert s.having is not None
        assert s.order_by[0].ascending is False
        assert s.limit == 3

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct

    def test_order_by_defaults_asc(self):
        s = parse("SELECT a FROM t ORDER BY a, b DESC, c ASC")
        assert [o.ascending for o in s.order_by] == [True, False, True]

    def test_limit_requires_integer(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t LIMIT 2.5")

    def test_trailing_semicolon_ok(self):
        parse("SELECT a FROM t;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t WHERE 1 = 1 1")


class TestExpressions:
    def test_precedence_or_and(self):
        e = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(e, BoolOp) and e.kind is BoolKind.OR
        assert isinstance(e.operands[1], BoolOp)
        assert e.operands[1].kind is BoolKind.AND

    def test_precedence_arithmetic(self):
        e = parse_expression("1 + 2 * 3")
        assert isinstance(e, Arithmetic) and e.op is ArithOp.ADD
        assert isinstance(e.right, Arithmetic) and e.right.op is ArithOp.MUL

    def test_parens_override(self):
        e = parse_expression("(1 + 2) * 3")
        assert e.op is ArithOp.MUL
        assert isinstance(e.left, Arithmetic)

    def test_comparison_chain_not_allowed(self):
        # a = b = c is not valid SQL; second '=' leaves trailing tokens
        with pytest.raises(ParseError):
            parse_expression("a = b = c")

    def test_not_binds_tighter_than_and(self):
        e = parse_expression("NOT a = 1 AND b = 2")
        assert isinstance(e, BoolOp) and e.kind is BoolKind.AND
        assert isinstance(e.operands[0], Not)

    def test_unary_minus_folds_literal(self):
        assert parse_expression("-5") == Literal(-5)
        e = parse_expression("-x")
        assert type(e).__name__ == "Negate"

    def test_is_null(self):
        e = parse_expression("a IS NULL")
        assert isinstance(e, IsNull) and not e.negated
        e = parse_expression("a IS NOT NULL")
        assert e.negated

    def test_in_list(self):
        e = parse_expression("a IN (1, 2, 3)")
        assert isinstance(e, InList) and len(e.items) == 3
        e = parse_expression("a NOT IN (1)")
        assert e.negated

    def test_like(self):
        e = parse_expression("name LIKE 'a%'")
        assert isinstance(e, Like) and e.pattern == "a%"
        assert parse_expression("name NOT LIKE '_'").negated

    def test_like_requires_string(self):
        with pytest.raises(ParseError):
            parse_expression("name LIKE 5")

    def test_between(self):
        e = parse_expression("a BETWEEN 1 AND 10")
        assert isinstance(e, Between)
        assert parse_expression("a NOT BETWEEN 1 AND 2").negated

    def test_between_and_boolean_and(self):
        e = parse_expression("a BETWEEN 1 AND 10 AND b = 2")
        assert isinstance(e, BoolOp) and e.kind is BoolKind.AND

    def test_literals(self):
        assert parse_expression("NULL") == Literal(None)
        assert parse_expression("TRUE") == Literal(True)
        assert parse_expression("FALSE") == Literal(False)
        assert parse_expression("'s'") == Literal("s")

    def test_qualified_column(self):
        assert parse_expression("t.col") == ColumnRef("t.col")

    def test_aggregates(self):
        e = parse_expression("COUNT(*)")
        assert e == AggCall(AggFunc.COUNT, None)
        e = parse_expression("SUM(a * 2)")
        assert e.func is AggFunc.SUM and isinstance(e.arg, Arithmetic)
        e = parse_expression("COUNT(DISTINCT a)")
        assert e.distinct

    def test_modulo(self):
        e = parse_expression("a % 2")
        assert e.op is ArithOp.MOD

    def test_ne_both_spellings(self):
        assert parse_expression("a <> 1").op is CmpOp.NE
        assert parse_expression("a != 1").op is CmpOp.NE


class TestDDLAndDML:
    def test_create_table(self):
        s = parse(
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR NOT NULL, "
            "price FLOAT, active BOOLEAN, born DATE)"
        )
        assert isinstance(s, CreateTableStmt)
        assert s.columns[0].primary_key and not s.columns[0].nullable
        assert not s.columns[1].nullable
        assert s.columns[2].dtype is DataType.FLOAT
        assert s.columns[3].dtype is DataType.BOOL
        assert s.columns[4].dtype is DataType.DATE

    def test_create_index_variants(self):
        s = parse("CREATE INDEX ix ON t (col)")
        assert isinstance(s, CreateIndexStmt)
        assert not s.clustered
        s = parse("CREATE CLUSTERED INDEX ix ON t (col) USING hash")
        assert s.clustered

    def test_using_btree_and_hash_are_one_statement(self):
        # old WALs carry both spellings; every index is a B+-tree
        plain = parse("CREATE INDEX ix ON t (col)")
        assert parse("CREATE INDEX ix ON t (col) USING btree") == plain
        assert parse("CREATE INDEX ix ON t (col) USING hash") == plain
        assert not hasattr(plain, "using")

    def test_create_index_bad_using(self):
        for kind in ("rtree", "gist"):
            with pytest.raises(ParseError):
                parse(f"CREATE INDEX ix ON t (c) USING {kind}")

    def test_insert(self):
        s = parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(s, InsertStmt)
        assert s.columns is None and len(s.rows) == 2

    def test_insert_with_columns(self):
        s = parse("INSERT INTO t (a, b) VALUES (1, 2)")
        assert s.columns == ["a", "b"]

    def test_insert_negative_number(self):
        s = parse("INSERT INTO t VALUES (-5)")
        assert s.rows[0][0] == Literal(-5)

    def test_drop_table(self):
        assert parse("DROP TABLE t") == DropTableStmt("t")

    def test_analyze(self):
        assert parse("ANALYZE t") == AnalyzeStmt("t")
        assert parse("ANALYZE") == AnalyzeStmt(None)

    def test_explain(self):
        s = parse("EXPLAIN SELECT * FROM t")
        assert isinstance(s, ExplainStmt)
        assert isinstance(s.inner, SelectStmt)

    def test_garbage_statement(self):
        with pytest.raises(ParseError):
            parse("FROBNICATE THE DATABASE")
