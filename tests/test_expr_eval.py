"""Tests for expression evaluation: three-valued logic and SQL semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.expr import (
    Between,
    ExprError,
    InList,
    IsNull,
    Like,
    and_,
    col,
    compile_expr,
    compile_predicate,
    eq,
    fold_constants,
    gt,
    infer_expr_type,
    like_to_regex,
    lit,
    lt,
    Not,
    or_,
)
from repro.executor.columnar import ColumnBatch, kernel_values
from repro.expr.nodes import (
    ARITH_FNS,
    CMP_FNS,
    AggCall,
    AggFunc,
    ArithOp,
    Arithmetic,
    CmpOp,
    Comparison,
    Negate,
)
from repro.expr.vector import compile_expr_columnar
from repro.types import DataType, schema_of

SCHEMA = schema_of(
    "t",
    ("i", DataType.INT),
    ("f", DataType.FLOAT),
    ("s", DataType.TEXT),
    ("b", DataType.BOOL),
)


def run(expr, row):
    return compile_expr(expr, SCHEMA)(row)


R = (5, 2.5, "hello", True)
RN = (None, None, None, None)


class TestComparisons:
    def test_all_operators(self):
        assert run(eq(col("i"), lit(5)), R) is True
        assert run(Comparison(CmpOp.NE, col("i"), lit(5)), R) is False
        assert run(lt(col("i"), lit(6)), R) is True
        assert run(Comparison(CmpOp.LE, col("i"), lit(5)), R) is True
        assert run(gt(col("i"), lit(5)), R) is False
        assert run(Comparison(CmpOp.GE, col("i"), lit(5)), R) is True

    def test_null_propagates(self):
        for op in CmpOp:
            assert run(Comparison(op, col("i"), lit(1)), RN) is None

    def test_mixed_numeric(self):
        assert run(gt(col("f"), lit(2)), R) is True

    def test_text_comparison(self):
        assert run(lt(col("s"), lit("world")), R) is True

    def test_incompatible_types_rejected(self):
        with pytest.raises(Exception):
            compile_expr(eq(col("i"), lit("x")), SCHEMA)


class TestBooleanLogic:
    def test_and_truth_table(self):
        t, f = lit(True), lit(False)
        assert run(and_(t, t), R) is True
        assert run(and_(t, f), R) is False
        # NULL AND FALSE = FALSE (short circuit on false)
        assert run(and_(eq(col("i"), lit(1)), f), RN) is False
        # NULL AND TRUE = NULL
        assert run(and_(eq(col("i"), lit(1)), t), RN) is None

    def test_or_truth_table(self):
        t, f = lit(True), lit(False)
        assert run(or_(f, t), R) is True
        assert run(or_(f, f), R) is False
        assert run(or_(eq(col("i"), lit(1)), t), RN) is True
        assert run(or_(eq(col("i"), lit(1)), f), RN) is None

    def test_not(self):
        assert run(Not(eq(col("i"), lit(5))), R) is False
        assert run(Not(eq(col("i"), lit(5))), RN) is None

    def test_predicate_maps_null_to_false(self):
        pred = compile_predicate(eq(col("i"), lit(1)), SCHEMA)
        assert pred(RN) is False
        assert pred((1, 0.0, "", False)) is True


class TestArithmetic:
    def test_basics(self):
        assert run(Arithmetic(ArithOp.ADD, col("i"), lit(3)), R) == 8
        assert run(Arithmetic(ArithOp.SUB, col("i"), lit(3)), R) == 2
        assert run(Arithmetic(ArithOp.MUL, col("f"), lit(2)), R) == 5.0
        assert run(Arithmetic(ArithOp.DIV, col("i"), lit(2)), R) == 2.5
        assert run(Arithmetic(ArithOp.MOD, col("i"), lit(3)), R) == 2

    def test_null_propagates(self):
        assert run(Arithmetic(ArithOp.ADD, col("i"), lit(3)), RN) is None

    def test_division_by_zero_is_null(self):
        assert run(Arithmetic(ArithOp.DIV, col("i"), lit(0)), R) is None
        assert run(Arithmetic(ArithOp.MOD, col("i"), lit(0)), R) is None

    def test_negate(self):
        assert run(Negate(col("i")), R) == -5
        assert run(Negate(col("i")), RN) is None

    def test_type_inference(self):
        assert infer_expr_type(
            Arithmetic(ArithOp.ADD, col("i"), lit(1)), SCHEMA
        ) is DataType.INT
        assert infer_expr_type(
            Arithmetic(ArithOp.DIV, col("i"), lit(2)), SCHEMA
        ) is DataType.FLOAT
        from repro.types import TypeError_

        with pytest.raises((ExprError, TypeError_)):
            infer_expr_type(Arithmetic(ArithOp.ADD, col("s"), lit(1)), SCHEMA)


class TestSpecialPredicates:
    def test_is_null(self):
        assert run(IsNull(col("i")), RN) is True
        assert run(IsNull(col("i")), R) is False
        assert run(IsNull(col("i"), negated=True), R) is True

    def test_in_list(self):
        e = InList(col("i"), (lit(1), lit(5)))
        assert run(e, R) is True
        assert run(InList(col("i"), (lit(1), lit(2))), R) is False
        assert run(e, RN) is None

    def test_in_list_with_null_item(self):
        # 5 IN (1, NULL) is NULL (unknown), 5 IN (5, NULL) is TRUE
        assert run(InList(col("i"), (lit(1), lit(None))), R) is None
        assert run(InList(col("i"), (lit(5), lit(None))), R) is True

    def test_not_in(self):
        assert run(InList(col("i"), (lit(1),), negated=True), R) is True
        assert run(InList(col("i"), (lit(1), lit(None)), negated=True), R) is None

    def test_between(self):
        assert run(Between(col("i"), lit(1), lit(10)), R) is True
        assert run(Between(col("i"), lit(6), lit(10)), R) is False
        assert run(Between(col("i"), lit(6), lit(10), negated=True), R) is True
        assert run(Between(col("i"), lit(1), lit(10)), RN) is None

    def test_like(self):
        assert run(Like(col("s"), "hel%"), R) is True
        assert run(Like(col("s"), "%llo"), R) is True
        assert run(Like(col("s"), "h_llo"), R) is True
        assert run(Like(col("s"), "xyz%"), R) is False
        assert run(Like(col("s"), "hel%", negated=True), R) is False
        assert run(Like(col("s"), "h%"), RN) is None

    def test_like_escapes_regex_chars(self):
        schema = schema_of("t", ("s", DataType.TEXT))
        f = compile_expr(Like(col("s"), "a.b%"), schema)
        assert f(("a.bc",)) is True
        assert f(("axbc",)) is False  # '.' is literal, not regex any

    def test_like_regex_anchoring(self):
        rx = like_to_regex("a%")
        assert rx.match("abc")
        assert not rx.match("xabc")


class TestConstantFolding:
    def test_arithmetic_folds(self):
        assert fold_constants(Arithmetic(ArithOp.ADD, lit(1), lit(2))) == lit(3)

    def test_comparison_folds(self):
        assert fold_constants(eq(lit(1), lit(1))) == lit(True)

    def test_and_identity(self):
        e = fold_constants(and_(lit(True), eq(col("i"), lit(1))))
        assert e == eq(col("i"), lit(1))

    def test_and_absorbing(self):
        assert fold_constants(and_(lit(False), eq(col("i"), lit(1)))) == lit(False)

    def test_or_absorbing(self):
        assert fold_constants(or_(lit(True), eq(col("i"), lit(1)))) == lit(True)

    def test_division_by_zero_not_folded(self):
        e = Arithmetic(ArithOp.DIV, lit(1), lit(0))
        assert fold_constants(e) is e

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_folding_matches_evaluation(self, a, b):
        for op in (ArithOp.ADD, ArithOp.SUB, ArithOp.MUL):
            e = Arithmetic(op, lit(a), lit(b))
            folded = fold_constants(e)
            assert run(folded, R) == run(e, R)


class TestOneMeaningPerOperator:
    """``CMP_FNS``/``ARITH_FNS`` are the only place ``a OP b`` is written
    down; the scalar compiler, constant folding and the kernels'
    object-dtype path read them, so one case pins all three readers."""

    KERNEL_SCHEMA = schema_of(
        "k", ("a", DataType.INT), ("b", DataType.INT), ("c", DataType.FLOAT)
    )
    #: an INT past int64 in any lane degrades its whole column to object
    #: dtype, which is what sends a kernel down the per-lane Python path
    HUGE = 2**70

    ARITH_CASES = [
        (ArithOp.ADD, 7, 2, 9),
        (ArithOp.SUB, 7, 2, 5),
        (ArithOp.MUL, 7, 2, 14),
        (ArithOp.DIV, 7, 2, 3.5),
        (ArithOp.DIV, 7, 0, None),
        (ArithOp.MOD, 7, 2, 1),
        (ArithOp.MOD, 7, 0, None),
    ]
    #: INT against FLOAT, one value apart and equal
    CMP_CASES = [
        (CmpOp.EQ, 7.5, False), (CmpOp.EQ, 7.0, True),
        (CmpOp.NE, 7.5, True), (CmpOp.NE, 7.0, False),
        (CmpOp.LT, 7.5, True), (CmpOp.LT, 7.0, False),
        (CmpOp.LE, 7.5, True), (CmpOp.LE, 6.5, False),
        (CmpOp.GT, 6.5, True), (CmpOp.GT, 7.0, False),
        (CmpOp.GE, 7.0, True), (CmpOp.GE, 7.5, False),
    ]

    def test_every_table_entry_has_a_case(self):
        assert {op for op, *_ in self.ARITH_CASES} == set(ARITH_FNS)
        assert set(ARITH_FNS) == set(ArithOp)
        assert {op for op, *_ in self.CMP_CASES} == set(CMP_FNS)
        assert set(CMP_FNS) == set(CmpOp)

    def kernel_lane(self, expr, row):
        """Lane 0 of *expr*'s kernel over *row* with column ``a`` forced
        to object dtype."""
        batch = ColumnBatch.from_rows(
            self.KERNEL_SCHEMA, [row, (self.HUGE, 1, 1.0)]
        )
        assert batch.columns[0][0].dtype == object
        kernel = compile_expr_columnar(expr, self.KERNEL_SCHEMA)
        return kernel_values(*kernel(batch))[0]

    def assert_same(self, got, expected):
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("op,a,b,expected", ARITH_CASES)
    def test_arithmetic_three_readers_agree(self, op, a, b, expected):
        constant = Arithmetic(op, lit(a), lit(b))
        self.assert_same(run(constant, R), expected)
        folded = fold_constants(constant)
        if expected is None:
            assert folded is constant  # NULL at run time: left unfolded
        else:
            self.assert_same(folded.value, expected)
        columns = Arithmetic(op, col("a"), col("b"))
        self.assert_same(self.kernel_lane(columns, (a, b, 0.0)), expected)

    @pytest.mark.parametrize("op,c,expected", CMP_CASES)
    def test_mixed_comparison_three_readers_agree(self, op, c, expected):
        constant = Comparison(op, lit(7), lit(c))
        self.assert_same(run(constant, R), expected)
        self.assert_same(fold_constants(constant).value, expected)
        columns = Comparison(op, col("a"), col("c"))
        self.assert_same(self.kernel_lane(columns, (7, 0, c)), expected)


class TestErrors:
    def test_unknown_column(self):
        with pytest.raises(Exception):
            compile_expr(col("nope"), SCHEMA)

    def test_aggregate_outside_context(self):
        with pytest.raises(ExprError):
            infer_expr_type(AggCall(AggFunc.SUM, col("i")), SCHEMA)

    def test_bare_null_literal_untyped(self):
        with pytest.raises(ExprError):
            infer_expr_type(lit(None), SCHEMA)
