"""Expression evaluation and type checking against a schema.

``compile_expr(expr, schema)`` resolves every column reference to a tuple
position once and returns a closure ``row -> value`` — the executor's hot
loops never do name lookups.  Three-valued logic: predicates return
True/False/None; filters keep only True.

This is the scalar compiler, the one every row path of the executor
calls; the other one, ``expr/vector.py``, compiles the same node classes
into kernels over a ``ColumnBatch``.  What ``a OP b`` means for two
non-NULL values is neither's to say: both read ``CMP_FNS``/``ARITH_FNS``
in ``expr/nodes.py``.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Any, Callable

from ..types import DataType, Schema, common_type, infer_type
from .nodes import (
    ARITH_FNS,
    CMP_FNS,
    AggCall,
    Arithmetic,
    ArithOp,
    Between,
    BoolKind,
    BoolOp,
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
)

Evaluator = Callable[[tuple], Any]


def infer_expr_type(expr: Expr, schema: Schema) -> DataType:
    """Static result type of *expr* over *schema* (raises on mismatch)."""
    if isinstance(expr, ColumnRef):
        return schema.column(expr.name).dtype
    if isinstance(expr, Literal):
        if expr.value is None:
            raise ExprError("bare NULL literal has no type; use IS NULL")
        return infer_type(expr.value)
    if isinstance(expr, Comparison):
        # comparisons with a NULL literal are legal (always UNKNOWN)
        null_left = isinstance(expr.left, Literal) and expr.left.value is None
        null_right = (
            isinstance(expr.right, Literal) and expr.right.value is None
        )
        if not null_left:
            lt_ = infer_expr_type(expr.left, schema)
        if not null_right:
            rt = infer_expr_type(expr.right, schema)
        if not null_left and not null_right:
            common_type(lt_, rt)  # raises if incomparable
        return DataType.BOOL
    if isinstance(expr, (BoolOp, Not, IsNull, InList, Like, Between)):
        for child in expr.children():
            # NULL literals are legal operands of these predicates
            # (e.g. ``x IN (1, NULL)``); they carry no type of their own.
            if isinstance(child, Literal) and child.value is None:
                continue
            infer_expr_type(child, schema)
        return DataType.BOOL
    if isinstance(expr, Arithmetic):
        lt_ = infer_expr_type(expr.left, schema)
        rt = infer_expr_type(expr.right, schema)
        out = common_type(lt_, rt)
        if not out.is_numeric:
            raise ExprError(f"arithmetic on non-numeric type {out.value}")
        if expr.op is ArithOp.DIV:
            return DataType.FLOAT
        return out
    if isinstance(expr, Negate):
        out = infer_expr_type(expr.operand, schema)
        if not out.is_numeric:
            raise ExprError(f"unary minus on non-numeric type {out.value}")
        return out
    if isinstance(expr, AggCall):
        raise ExprError(
            f"aggregate {expr} outside an aggregation context"
        )
    raise ExprError(f"cannot type expression {expr!r}")


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%``/``_``) to an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def compile_expr(expr: Expr, schema: Schema) -> Evaluator:
    """Compile *expr* into a ``row -> value`` closure.

    Also type-checks the expression; every column reference must resolve in
    *schema*.
    """
    infer_expr_type(expr, schema)
    return _compile(expr, schema)


def _compile(expr: Expr, schema: Schema) -> Evaluator:
    if isinstance(expr, ColumnRef):
        return itemgetter(schema.index_of(expr.name))

    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, (Comparison, Arithmetic)):
        left = _compile(expr.left, schema)
        right = _compile(expr.right, schema)
        # the operator is picked here, once, not per row
        table = CMP_FNS if isinstance(expr, Comparison) else ARITH_FNS
        fn = table[expr.op]

        def run_binary(row):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return fn(a, b)

        return run_binary

    if isinstance(expr, BoolOp):
        parts = [_compile(o, schema) for o in expr.operands]
        if expr.kind is BoolKind.AND:

            def run_and(row):
                saw_null = False
                for p in parts:
                    v = p(row)
                    if v is False:
                        return False
                    if v is None:
                        saw_null = True
                return None if saw_null else True

            return run_and

        def run_or(row):
            saw_null = False
            for p in parts:
                v = p(row)
                if v is True:
                    return True
                if v is None:
                    saw_null = True
            return None if saw_null else False

        return run_or

    if isinstance(expr, Not):
        inner = _compile(expr.operand, schema)

        def run_not(row):
            v = inner(row)
            return None if v is None else not v

        return run_not

    if isinstance(expr, Negate):
        inner = _compile(expr.operand, schema)

        def run_neg(row):
            v = inner(row)
            return None if v is None else -v

        return run_neg

    if isinstance(expr, IsNull):
        inner = _compile(expr.operand, schema)
        if expr.negated:
            return lambda row: inner(row) is not None
        return lambda row: inner(row) is None

    if isinstance(expr, InList):
        inner = _compile(expr.operand, schema)
        items = [_compile(i, schema) for i in expr.items]
        negated = expr.negated

        def run_in(row):
            v = inner(row)
            if v is None:
                return None
            saw_null = False
            for item in items:
                w = item(row)
                if w is None:
                    saw_null = True
                elif v == w:
                    return not negated
            if saw_null:
                return None
            return negated

        return run_in

    if isinstance(expr, Between):
        inner = _compile(expr.operand, schema)
        low = _compile(expr.low, schema)
        high = _compile(expr.high, schema)
        negated = expr.negated

        def run_between(row):
            v = inner(row)
            lo = low(row)
            hi = high(row)
            if v is None or lo is None or hi is None:
                return None
            result = lo <= v <= hi
            return not result if negated else result

        return run_between

    if isinstance(expr, Like):
        inner = _compile(expr.operand, schema)
        regex = like_to_regex(expr.pattern)
        negated = expr.negated

        def run_like(row):
            v = inner(row)
            if v is None:
                return None
            result = regex.match(v) is not None
            return not result if negated else result

        return run_like

    raise ExprError(f"cannot compile {expr!r}")


def compile_predicate(expr: Expr, schema: Schema) -> Callable[[tuple], bool]:
    """Like :func:`compile_expr` but maps NULL to False (WHERE semantics)."""
    inner = compile_expr(expr, schema)
    return lambda row: inner(row) is True
