"""Logical plan operators.

A logical plan is a tree of relational operators with resolved schemas but
no physical decisions (no access paths, join algorithms or orders).  The
optimizer and baseline planners consume logical plans and emit physical
plans (:mod:`repro.physical`).

Operators: Get, Filter, Project, Join (inner/cross), Aggregate, Sort,
Limit, Distinct.  Nodes are immutable; rewrites construct new trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..catalog import TableInfo
from ..expr import AggCall, Expr
from ..types import Column, DataType, Schema


class PlanError(Exception):
    """Raised when a plan is malformed."""


class LogicalPlan:
    """Base class.  ``schema`` is the operator's output schema."""

    schema: Schema

    def children(self) -> Tuple["LogicalPlan", ...]:
        return ()


@dataclass(frozen=True, eq=False)
class LogicalGet(LogicalPlan):
    """Scan of a base table under a binding name (alias)."""

    table: TableInfo
    binding: str
    schema: Schema = field(compare=False)

    def __init__(self, table: TableInfo, binding: Optional[str] = None):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "binding", binding or table.name)
        object.__setattr__(self, "schema", table.schema.renamed(self.binding))


@dataclass(frozen=True, eq=False)
class LogicalFilter(LogicalPlan):
    child: LogicalPlan
    predicate: Expr
    schema: Schema = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", self.child.schema)

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class LogicalProject(LogicalPlan):
    """Projection to computed expressions with output names."""

    child: LogicalPlan
    exprs: Tuple[Expr, ...]
    names: Tuple[str, ...]
    schema: Schema = field(compare=False)

    def __init__(
        self,
        child: LogicalPlan,
        exprs: Tuple[Expr, ...],
        names: Tuple[str, ...],
    ):
        from ..expr import infer_expr_type

        if len(exprs) != len(names):
            raise PlanError("projection exprs/names length mismatch")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "exprs", tuple(exprs))
        object.__setattr__(self, "names", tuple(names))
        schema = Schema(
            Column(name, infer_expr_type(e, child.schema), None)
            for name, e in zip(names, exprs)
        )
        object.__setattr__(self, "schema", schema)

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class LogicalJoin(LogicalPlan):
    """Inner join; ``condition=None`` is a cross product."""

    left: LogicalPlan
    right: LogicalPlan
    condition: Optional[Expr]
    schema: Schema = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "schema", self.left.schema.concat(self.right.schema)
        )

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class LogicalAggregate(LogicalPlan):
    """Grouped aggregation.

    Output schema: one column per group expression (named ``group_names``),
    then one column per aggregate call (named ``str(agg)``).
    """

    child: LogicalPlan
    group_exprs: Tuple[Expr, ...]
    group_names: Tuple[str, ...]
    aggs: Tuple[AggCall, ...]
    schema: Schema = field(compare=False)

    def __init__(
        self,
        child: LogicalPlan,
        group_exprs: Tuple[Expr, ...],
        group_names: Tuple[str, ...],
        aggs: Tuple[AggCall, ...],
    ):
        from ..expr import AggFunc, infer_expr_type

        object.__setattr__(self, "child", child)
        object.__setattr__(self, "group_exprs", tuple(group_exprs))
        object.__setattr__(self, "group_names", tuple(group_names))
        object.__setattr__(self, "aggs", tuple(aggs))
        cols: List[Column] = []
        for name, expr in zip(group_names, group_exprs):
            cols.append(Column(name, infer_expr_type(expr, child.schema), None))
        for agg in aggs:
            if agg.func is AggFunc.COUNT:
                dtype = DataType.INT
            elif agg.func is AggFunc.AVG:
                dtype = DataType.FLOAT
            else:
                dtype = infer_expr_type(agg.arg, child.schema)
            cols.append(Column(str(agg), dtype, None))
        object.__setattr__(self, "schema", Schema(cols))

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class LogicalSort(LogicalPlan):
    child: LogicalPlan
    keys: Tuple[Tuple[Expr, bool], ...]  # (expr, ascending)
    schema: Schema = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", self.child.schema)

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class LogicalLimit(LogicalPlan):
    child: LogicalPlan
    count: int
    schema: Schema = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", self.child.schema)

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class LogicalDistinct(LogicalPlan):
    child: LogicalPlan
    schema: Schema = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", self.child.schema)

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)
