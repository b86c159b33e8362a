"""Aggregate accumulators: COUNT/SUM/AVG/MIN/MAX with DISTINCT support.

SQL NULL semantics: aggregates ignore NULL inputs; SUM/AVG/MIN/MAX of an
empty (or all-NULL) group is NULL; COUNT is 0.  ``COUNT(*)`` counts rows
regardless of values.

Two folds give the same answers.  ``Accumulator`` holds one group's
state and folds Python values one at a time.  ``CodeFold`` holds every
group's state as arrays indexed by group code and folds a batch with a
few numpy calls; an aggregate it cannot fold exactly that way turns into
``Accumulator``s, each starting from its group's state so far.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

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


#: an int64 SUM stays in int64 while the sum of |value| over every row
#: it has folded stays within this, so no group's total can overflow
_INT64_MAX = 2**63 - 1


class CodeFold:
    """Every group's aggregates as arrays indexed by group code.

    ``fold(codes, ngroups, columns)`` folds a batch whose row *i* belongs
    to group ``codes[i]``; *columns* holds one kernel result
    ``(data, valid)`` per aggregate, ``None`` for ``COUNT(*)``.  Each
    group is folded in row order, batch after batch, exactly as
    ``Accumulator.add_many`` folds it, so float sums are bit-identical.
    """

    def __init__(self, aggs: Sequence[AggCall]):
        self.aggs = [_CodeAgg(a.func, a.distinct) for a in aggs]

    def fold(
        self, codes: np.ndarray, ngroups: int, columns: Sequence[Any]
    ) -> None:
        for agg, column in zip(self.aggs, columns):
            agg.fold(codes, ngroups, column)

    def results(self, ngroups: int) -> List[Tuple[Any, ...]]:
        """One tuple of native Python values per group, in code order."""
        if not self.aggs:
            return [()] * ngroups
        return list(zip(*(agg.results(ngroups) for agg in self.aggs)))


class _CodeAgg:
    """One aggregate of a ``CodeFold``: the non-NULL count per group and,
    for SUM/AVG the total and for MIN/MAX the extreme so far.  Totals
    start at ``-0.0`` (``-0.0 + v`` is ``v`` bit for bit) or int 0 and
    are folded with ``np.add.at``, which adds in index order.

    DISTINCT, an argument that is neither int64 nor float64 (bool for
    MIN/MAX), a dtype other than the one folded so far, an int64 SUM
    that could overflow and a NaN in MIN/MAX fold through one
    ``Accumulator`` per group (``accs``) from then on."""

    __slots__ = ("func", "distinct", "count", "value", "accs", "bound")

    def __init__(self, func: AggFunc, distinct: bool):
        self.func = func
        self.distinct = distinct
        self.count = np.zeros(0, dtype=np.int64)
        self.value: Optional[np.ndarray] = None
        self.accs: Optional[List[Accumulator]] = [] if distinct else None
        self.bound = 0

    def _grow(self, ngroups: int) -> None:
        if self.accs is not None:
            self.accs.extend(
                Accumulator(self.func, self.distinct)
                for _ in range(ngroups - len(self.accs))
            )
            return
        extra = ngroups - len(self.count)
        if extra > 0:
            self.count = np.concatenate(
                [self.count, np.zeros(extra, dtype=np.int64)]
            )
            if self.value is not None:
                self.value = np.concatenate(
                    [self.value, _starts(self.value.dtype, extra)]
                )

    def fold(self, codes: np.ndarray, ngroups: int, column: Any) -> None:
        self._grow(ngroups)
        if column is None:  # COUNT(*)
            self.count += np.bincount(codes, minlength=ngroups)
            return
        data, valid = column
        if valid is not None:
            codes, data = codes[valid], data[valid]
        if not len(data):
            return
        if self.accs is None and not self._native(data):
            self._to_accumulators()
        if self.accs is not None:
            self._fold_accumulators(codes, data.tolist())
            return
        func = self.func
        if func is AggFunc.SUM or func is AggFunc.AVG:
            np.add.at(self.value, codes, data)
        elif func is not AggFunc.COUNT:
            self._fold_extremes(codes, data)
        self.count += np.bincount(codes, minlength=ngroups)

    def _native(self, data: np.ndarray) -> bool:
        """Whether *data* folds into the arrays exactly (first use sets
        up the value array)."""
        func = self.func
        if func is AggFunc.COUNT:
            return True
        kind = data.dtype
        if self.value is not None and kind != self.value.dtype:
            return False
        if func is AggFunc.SUM or func is AggFunc.AVG:
            if kind == np.int64:
                top = max(abs(int(data.max())), abs(int(data.min())))
                self.bound += top * len(data)
                if self.bound > _INT64_MAX:
                    return False
            elif kind != np.float64:
                return False
        elif kind == np.float64:
            if np.isnan(data).any():
                return False
        elif kind != np.int64 and kind != np.bool_:
            return False
        if self.value is None:
            self.value = _starts(kind, len(self.count))
        return True

    def _fold_extremes(self, codes: np.ndarray, data: np.ndarray) -> None:
        """MIN/MAX: each group's first extreme of the batch (a stable
        sort by group, then value) replaces the one so far only if
        strictly beyond it, as ``min``/``max`` and ``add_many`` keep the
        first of equal values (``-0.0`` and ``0.0``)."""
        is_min = self.func is AggFunc.MIN
        if is_min:
            key = data
        else:
            key = -data if data.dtype == np.float64 else ~data
        order = np.lexsort((key, codes))
        ordered = codes[order]
        first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        groups = ordered[first]
        found = data[order[first]]
        held = self.value[groups]
        beyond = found < held if is_min else found > held
        beyond |= self.count[groups] == 0
        self.value[groups[beyond]] = found[beyond]

    def _to_accumulators(self) -> None:
        counts = self.count.tolist()
        values = (
            [None] * len(counts) if self.value is None else self.value.tolist()
        )
        summing = self.func is AggFunc.SUM or self.func is AggFunc.AVG
        accs = []
        for count, value in zip(counts, values):
            acc = Accumulator(self.func, self.distinct)
            acc.count = count
            if count:
                if summing:
                    acc.total = value
                else:
                    acc.extreme = value
            accs.append(acc)
        self.accs = accs
        self.value = None

    def _fold_accumulators(self, codes: np.ndarray, values: List[Any]) -> None:
        """Each group's values of the batch, in row order, into its
        ``Accumulator`` with one ``add_many``."""
        order = np.argsort(codes, kind="stable")
        ordered = codes[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        grouped = list(map(values.__getitem__, order.tolist()))
        bounds = starts.tolist() + [len(grouped)]
        accs = self.accs
        for g, lo, hi in zip(ordered[starts].tolist(), bounds, bounds[1:]):
            accs[g].add_many(grouped[lo:hi])

    def results(self, ngroups: int) -> List[Any]:
        self._grow(ngroups)
        if self.accs is not None:
            return [acc.result() for acc in self.accs]
        counts = self.count.tolist()
        if self.func is AggFunc.COUNT:
            return counts
        if self.value is None:
            return [None] * ngroups
        values = self.value.tolist()
        if self.func is AggFunc.AVG:
            return [v / c if c else None for v, c in zip(values, counts)]
        return [v if c else None for v, c in zip(values, counts)]


def _starts(dtype: np.dtype, n: int) -> np.ndarray:
    """Fresh value slots: ``-0.0`` for a float total, zero otherwise."""
    return np.full(n, -0.0 if dtype == np.float64 else 0, dtype=dtype)
