"""Tests for expression normalization, decomposition and classification."""

from hypothesis import given, strategies as st

from repro.expr import (
    Between,
    BoolKind,
    BoolOp,
    CmpOp,
    ColCmpConst,
    ColEqCol,
    InList,
    IsNull,
    Like,
    and_,
    classify_conjunct,
    col,
    compile_expr,
    conjoin,
    contains_aggregate,
    eq,
    gt,
    lit,
    lt,
    normalize,
    Not,
    or_,
    referenced_columns,
    referenced_tables,
    split_conjuncts,
)
from repro.expr.nodes import AggCall, AggFunc
from repro.types import DataType, schema_of

SCHEMA = schema_of("t", ("a", DataType.INT), ("b", DataType.INT))


class TestNormalize:
    def test_between_desugars(self):
        e = normalize(Between(col("a"), lit(1), lit(10)))
        assert isinstance(e, BoolOp) and e.kind is BoolKind.AND
        ops = [(c.op, c.right.value) for c in e.operands]
        assert (CmpOp.GE, 1) in ops and (CmpOp.LE, 10) in ops

    def test_not_between(self):
        e = normalize(Between(col("a"), lit(1), lit(10), negated=True))
        assert isinstance(e, BoolOp) and e.kind is BoolKind.OR

    def test_de_morgan_and(self):
        e = normalize(Not(and_(eq(col("a"), lit(1)), eq(col("b"), lit(2)))))
        assert isinstance(e, BoolOp) and e.kind is BoolKind.OR
        assert all(c.op is CmpOp.NE for c in e.operands)

    def test_de_morgan_or(self):
        e = normalize(Not(or_(lt(col("a"), lit(1)), gt(col("a"), lit(9)))))
        assert isinstance(e, BoolOp) and e.kind is BoolKind.AND
        assert {c.op for c in e.operands} == {CmpOp.GE, CmpOp.LE}

    def test_double_negation(self):
        e = normalize(Not(Not(eq(col("a"), lit(1)))))
        assert e == eq(col("a"), lit(1))

    def test_not_pushes_into_is_null(self):
        e = normalize(Not(IsNull(col("a"))))
        assert isinstance(e, IsNull) and e.negated

    def test_not_pushes_into_in_and_like(self):
        e = normalize(Not(InList(col("a"), (lit(1),))))
        assert e.negated
        e = normalize(Not(Like(col("a"), "x%")))
        assert e.negated

    @given(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)
    )
    def test_normalize_preserves_semantics(self, a, b, x):
        exprs = [
            Not(and_(lt(col("a"), lit(a)), gt(col("b"), lit(b)))),
            Not(or_(eq(col("a"), lit(a)), Not(eq(col("b"), lit(b))))),
            Between(col("a"), lit(min(a, b)), lit(max(a, b)), negated=True),
        ]
        row = (x, b)
        for e in exprs:
            original = compile_expr(e, SCHEMA)(row)
            normalized = compile_expr(normalize(e), SCHEMA)(row)
            assert original == normalized


class TestConjuncts:
    def test_split_flat(self):
        e = and_(eq(col("a"), lit(1)), gt(col("b"), lit(2)), lt(col("a"), lit(9)))
        assert len(split_conjuncts(e)) == 3

    def test_split_nested(self):
        e = and_(eq(col("a"), lit(1)), and_(gt(col("b"), lit(2)), lt(col("a"), lit(9))))
        assert len(split_conjuncts(e)) == 3

    def test_split_none(self):
        assert split_conjuncts(None) == []

    def test_split_between_becomes_two(self):
        assert len(split_conjuncts(Between(col("a"), lit(1), lit(2)))) == 2

    def test_or_stays_single(self):
        e = or_(eq(col("a"), lit(1)), eq(col("b"), lit(2)))
        assert split_conjuncts(e) == [e]

    def test_conjoin_roundtrip(self):
        conjuncts = [eq(col("a"), lit(1)), gt(col("b"), lit(2))]
        rebuilt = conjoin(conjuncts)
        assert split_conjuncts(rebuilt) == conjuncts
        assert conjoin([]) is None
        assert conjoin([conjuncts[0]]) == conjuncts[0]


class TestReferences:
    def test_referenced_columns(self):
        e = and_(eq(col("t.a"), lit(1)), gt(col("b"), col("t.a")))
        assert referenced_columns(e) == {"t.a", "b"}

    def test_referenced_tables(self):
        s = SCHEMA.concat(schema_of("u", ("c", DataType.INT)))
        e = eq(col("t.a"), col("u.c"))
        assert referenced_tables(e, s) == frozenset({"t", "u"})

    def test_contains_aggregate(self):
        assert contains_aggregate(AggCall(AggFunc.SUM, col("a")))
        assert contains_aggregate(gt(AggCall(AggFunc.COUNT, None), lit(1)))
        assert not contains_aggregate(eq(col("a"), lit(1)))


class TestClassification:
    def test_col_cmp_const(self):
        c = classify_conjunct(gt(col("a"), lit(5)))
        assert c == ColCmpConst("a", CmpOp.GT, 5)

    def test_const_cmp_col_flips(self):
        c = classify_conjunct(gt(lit(5), col("a")))
        assert c == ColCmpConst("a", CmpOp.LT, 5)

    def test_col_eq_col(self):
        c = classify_conjunct(eq(col("t.a"), col("u.c")))
        assert c == ColEqCol("t.a", "u.c")

    def test_null_constant_not_sargable(self):
        assert classify_conjunct(eq(col("a"), lit(None))) is None

    def test_complex_not_classified(self):
        from repro.expr.nodes import ArithOp, Arithmetic

        e = eq(Arithmetic(ArithOp.ADD, col("a"), lit(1)), lit(5))
        assert classify_conjunct(e) is None

    def test_col_lt_col_not_equijoin(self):
        assert classify_conjunct(lt(col("a"), col("b"))) is None
