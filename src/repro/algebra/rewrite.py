"""Logical rewrite: predicate pushdown.

The one heuristic rewrite that runs before cost-based optimization
(every planner benefits from it; E9 measures its impact): move each
WHERE conjunct to the lowest operator whose schema covers its columns.
Single-table conjuncts drop onto their scan, join conjuncts attach to
the lowest join that sees both sides.  It preserves semantics exactly;
tests verify result-set equality with pushdown on and off.
"""

from __future__ import annotations

from typing import List, Sequence

from ..expr import (
    ColumnRef,
    Expr,
    conjoin,
    normalize,
    referenced_columns,
    split_conjuncts,
)
from ..types import Schema
from .logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalSort,
)


# -- predicate pushdown ----------------------------------------------------------


def push_down_predicates(plan: LogicalPlan) -> LogicalPlan:
    return _push(plan, [])


def _covers(schema: Schema, conjunct: Expr) -> bool:
    return all(schema.has_column(name) for name in referenced_columns(conjunct))


def _push(plan: LogicalPlan, pending: List[Expr]) -> LogicalPlan:
    """Rebuild *plan* with *pending* conjuncts placed as low as possible."""
    if isinstance(plan, LogicalFilter):
        return _push(plan.child, pending + split_conjuncts(plan.predicate))

    if isinstance(plan, LogicalJoin):
        conjuncts = list(pending)
        conjuncts.extend(split_conjuncts(plan.condition))
        left_schema, right_schema = plan.left.schema, plan.right.schema
        to_left: List[Expr] = []
        to_right: List[Expr] = []
        stay: List[Expr] = []
        for c in conjuncts:
            if _covers(left_schema, c):
                to_left.append(c)
            elif _covers(right_schema, c):
                to_right.append(c)
            else:
                stay.append(c)
        left = _push(plan.left, to_left)
        right = _push(plan.right, to_right)
        return LogicalJoin(left, right, conjoin(stay))

    if isinstance(plan, LogicalGet):
        predicate = conjoin(pending)
        if predicate is None:
            return plan
        return LogicalFilter(plan, normalize(predicate))

    if isinstance(plan, LogicalProject):
        # Push conjuncts through when every referenced output column is a
        # plain pass-through of an input column.
        passthrough = {}
        for expr, name in zip(plan.exprs, plan.names):
            if isinstance(expr, ColumnRef):
                passthrough[name] = expr
        pushable: List[Expr] = []
        stay = []
        for c in pending:
            refs = referenced_columns(c)
            if refs and all(r in passthrough for r in refs):
                pushable.append(_substitute(c, passthrough))
            else:
                stay.append(c)
        child = _push(plan.child, pushable)
        out: LogicalPlan = LogicalProject(child, plan.exprs, plan.names)
        return _wrap(out, stay)

    if isinstance(plan, (LogicalSort, LogicalDistinct)):
        # Filters commute with sort/distinct.
        child = _push(plan.children()[0], pending)
        return _rebuild_unary(plan, child)

    if isinstance(plan, (LogicalLimit, LogicalAggregate)):
        # Never push through LIMIT (changes results) or Aggregate (HAVING
        # semantics differ from WHERE).
        child = _push(plan.children()[0], [])
        return _wrap(_rebuild_unary(plan, child), pending)

    if not plan.children():
        return _wrap(plan, pending)
    raise TypeError(f"unhandled operator {type(plan).__name__}")


def _wrap(plan: LogicalPlan, conjuncts: Sequence[Expr]) -> LogicalPlan:
    predicate = conjoin(list(conjuncts))
    if predicate is None:
        return plan
    return LogicalFilter(plan, normalize(predicate))


def _rebuild_unary(plan: LogicalPlan, child: LogicalPlan) -> LogicalPlan:
    if isinstance(plan, LogicalSort):
        return LogicalSort(child, plan.keys)
    if isinstance(plan, LogicalDistinct):
        return LogicalDistinct(child)
    if isinstance(plan, LogicalLimit):
        return LogicalLimit(child, plan.count)
    if isinstance(plan, LogicalAggregate):
        return LogicalAggregate(
            child, plan.group_exprs, plan.group_names, plan.aggs
        )
    raise TypeError(f"not unary: {type(plan).__name__}")


def _substitute(expr: Expr, mapping) -> Expr:
    """Replace column references by name through a projection."""
    from ..expr import (
        Arithmetic,
        Between,
        BoolOp,
        Comparison,
        InList,
        IsNull,
        Like,
        Literal,
        Negate,
        Not,
    )

    if isinstance(expr, ColumnRef):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Literal):
        return expr
    sub = lambda e: _substitute(e, mapping)
    if isinstance(expr, Comparison):
        return Comparison(expr.op, sub(expr.left), sub(expr.right))
    if isinstance(expr, Arithmetic):
        return Arithmetic(expr.op, sub(expr.left), sub(expr.right))
    if isinstance(expr, BoolOp):
        return BoolOp(expr.kind, tuple(sub(o) for o in expr.operands))
    if isinstance(expr, Not):
        return Not(sub(expr.operand))
    if isinstance(expr, Negate):
        return Negate(sub(expr.operand))
    if isinstance(expr, IsNull):
        return IsNull(sub(expr.operand), expr.negated)
    if isinstance(expr, InList):
        return InList(sub(expr.operand), tuple(sub(i) for i in expr.items), expr.negated)
    if isinstance(expr, Like):
        return Like(sub(expr.operand), expr.pattern, expr.negated)
    if isinstance(expr, Between):
        return Between(sub(expr.operand), sub(expr.low), sub(expr.high), expr.negated)
    raise TypeError(f"cannot substitute in {expr!r}")
