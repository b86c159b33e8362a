"""The two expression compilers know the same node classes.

An operator under ``ctx.columnar`` compiles the scalar form of its
expression and then the kernel, with no fallback between them: an
``Expr`` subclass taught to one compiler only would fail at operator
construction on one engine and not the other.  This walks every concrete
node class so that day shows up here first.
"""

import inspect

import pytest

from repro.expr import compile_expr, nodes
from repro.expr.nodes import (
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
    Expr,
    ExprError,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    SubqueryExpr,
)
from repro.expr.vector import compile_expr_columnar
from repro.types import DataType, schema_of

SCHEMA = schema_of("t", ("i", DataType.INT), ("s", DataType.TEXT))
INT_COL = ColumnRef("i")
POSITIVE = Comparison(CmpOp.GT, INT_COL, Literal(0))

#: a small well-typed instance of every concrete node class
SAMPLES = {
    ColumnRef: INT_COL,
    Literal: Literal(1),
    Comparison: POSITIVE,
    BoolOp: BoolOp(BoolKind.AND, (POSITIVE, IsNull(INT_COL))),
    Not: Not(POSITIVE),
    Arithmetic: Arithmetic(ArithOp.ADD, INT_COL, Literal(1)),
    Negate: Negate(INT_COL),
    IsNull: IsNull(INT_COL),
    InList: InList(INT_COL, (Literal(1), Literal(2))),
    Between: Between(INT_COL, Literal(0), Literal(9)),
    Like: Like(ColumnRef("s"), "a%"),
    SubqueryExpr: SubqueryExpr("exists", None, payload=None),
    AggCall: AggCall(AggFunc.SUM, INT_COL),
}

NODE_CLASSES = sorted(
    (
        cls
        for _, cls in inspect.getmembers(nodes, inspect.isclass)
        if issubclass(cls, Expr) and cls is not Expr
    ),
    key=lambda cls: cls.__name__,
)


def compiles(compiler, expr) -> bool:
    try:
        return callable(compiler(expr, SCHEMA))
    except ExprError:
        return False


def test_every_node_class_has_a_sample():
    assert set(NODE_CLASSES) == set(SAMPLES)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_both_compilers_know_the_node_class_or_neither(cls):
    expr = SAMPLES[cls]
    scalar = compiles(compile_expr, expr)
    assert scalar == compiles(compile_expr_columnar, expr)
    # the only shapes neither evaluates are resolved before execution
    assert scalar == (cls not in (SubqueryExpr, AggCall))
