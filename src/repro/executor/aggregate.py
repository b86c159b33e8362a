"""Aggregate accumulators: COUNT/SUM/AVG/MIN/MAX with DISTINCT support.

SQL NULL semantics: aggregates ignore NULL inputs; SUM/AVG/MIN/MAX of an
empty (or all-NULL) group is NULL; COUNT is 0.  ``COUNT(*)`` counts rows
regardless of values.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..expr import AggCall, AggFunc, Expr, compile_expr
from ..types import Schema


class Accumulator:
    """One aggregate's running state for one group."""

    __slots__ = ("func", "distinct", "count", "total", "extreme", "seen")

    def __init__(self, func: AggFunc, distinct: bool):
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total: Any = None
        self.extreme: Any = None
        self.seen: Optional[set] = set() if distinct else None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.func is AggFunc.SUM or self.func is AggFunc.AVG:
            self.total = value if self.total is None else self.total + value
        elif self.func is AggFunc.MIN:
            if self.extreme is None or value < self.extreme:
                self.extreme = value
        elif self.func is AggFunc.MAX:
            if self.extreme is None or value > self.extreme:
                self.extreme = value

    def add_star(self) -> None:
        """COUNT(*): every row counts."""
        self.count += 1

    def add_many(self, values: Sequence[Any]) -> None:
        """Fold a column of values in one call (same result as ``add`` per
        value, in the same left-to-right order)."""
        vals = [v for v in values if v is not None]
        if self.seen is not None:
            fresh = []
            for v in vals:
                if v not in self.seen:
                    self.seen.add(v)
                    fresh.append(v)
            vals = fresh
        if not vals:
            return
        self.count += len(vals)
        func = self.func
        if func is AggFunc.SUM or func is AggFunc.AVG:
            # accumulate in the same order as repeated add() so float sums
            # are bit-identical at every batch size
            total = self.total
            for v in vals:
                total = v if total is None else total + v
            self.total = total
        elif func is AggFunc.MIN:
            low = min(vals)
            if self.extreme is None or low < self.extreme:
                self.extreme = low
        elif func is AggFunc.MAX:
            high = max(vals)
            if self.extreme is None or high > self.extreme:
                self.extreme = high

    def add_star_many(self, n: int) -> None:
        self.count += n

    def result(self) -> Any:
        if self.func is AggFunc.COUNT:
            return self.count
        if self.func is AggFunc.SUM:
            return self.total
        if self.func is AggFunc.AVG:
            if self.count == 0:
                return None
            return self.total / self.count
        return self.extreme


class AggregateState:
    """Per-group accumulator row plus evaluation plumbing."""

    def __init__(self, aggs: Sequence[AggCall], child_schema: Schema):
        self.aggs = list(aggs)
        self.arg_fns: List[Optional[Callable[[tuple], Any]]] = []
        for agg in self.aggs:
            if agg.arg is None:
                self.arg_fns.append(None)
            else:
                self.arg_fns.append(compile_expr(agg.arg, child_schema))

    def new_group(self) -> List[Accumulator]:
        return [Accumulator(a.func, a.distinct) for a in self.aggs]

    def update(self, accs: List[Accumulator], row: tuple) -> None:
        for acc, agg, fn in zip(accs, self.aggs, self.arg_fns):
            if fn is None:
                acc.add_star()
            else:
                acc.add(fn(row))

    def finish(self, accs: List[Accumulator]) -> Tuple[Any, ...]:
        return tuple(acc.result() for acc in accs)


def compile_group_key(
    group_exprs: Sequence[Expr], child_schema: Schema
) -> Callable[[tuple], Tuple[Any, ...]]:
    fns = [compile_expr(g, child_schema) for g in group_exprs]
    return lambda row: tuple(fn(row) for fn in fns)
