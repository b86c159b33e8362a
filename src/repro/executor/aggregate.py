"""Aggregate accumulators: COUNT/SUM/AVG/MIN/MAX with DISTINCT support.

SQL NULL semantics: aggregates ignore NULL inputs; SUM/AVG/MIN/MAX of an
empty (or all-NULL) group is NULL; COUNT is 0.  ``COUNT(*)`` counts rows
regardless of values.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..expr import AggCall, AggFunc


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

    def add_many(self, values: Sequence[Any]) -> None:
        """Fold a column of values in one call, strictly left to right."""
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
            # accumulate one value at a time, in order, so float sums are
            # bit-identical at every batch size
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
    """Makes and finishes a group's row of accumulators; the operator
    that owns it evaluates the arguments and folds them in."""

    def __init__(self, aggs: Sequence[AggCall]):
        self.aggs = list(aggs)

    def new_group(self) -> List[Accumulator]:
        return [Accumulator(a.func, a.distinct) for a in self.aggs]

    def finish(self, accs: List[Accumulator]) -> Tuple[Any, ...]:
        return tuple(acc.result() for acc in accs)
