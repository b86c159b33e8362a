"""Stateless row operators: filter, project, narrow, limit, materialize.

These are the batch engine's cheapest operators — each call transforms
one child batch, so their per-row overhead is a list comprehension step
rather than a generator frame.

Filter, project, narrow and limit take either kind of batch: a
:class:`ColumnBatch` stays columnar (mask filter, kernel evaluation,
column selection, slicing) and passes columns through untouched, so a
scan→filter→project pipeline never materializes row tuples; a row batch
(the row engine; above an index scan or a sort on either engine) goes
through the scalar closures row by row.  Materialize converts to rows
(its cache is row storage).
"""

from __future__ import annotations

from typing import List, Optional

from ..expr import compile_expr, compile_predicate
from ..expr.vector import compile_expr_columnar, compile_predicate_columnar
from ..physical import PFilter, PLimit, PMaterialize, PNarrow, PProject
from .columnar import ColumnBatch, is_columnar
from .operator import Batch, Row, UnaryOperator, operator_for


@operator_for(PFilter)
class FilterOp(UnaryOperator):
    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.predicate = compile_predicate(plan.predicate, plan.child.schema)
        if ctx.columnar:
            self.predicate_columnar = compile_predicate_columnar(
                plan.predicate, plan.child.schema
            )

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        predicate = self.predicate
        while True:
            batch = self.child.next_batch(max_rows)
            if batch is None:
                return None
            if is_columnar(batch):
                out = batch.filter(self.predicate_columnar(batch))
            else:
                out = [row for row in batch if predicate(row)]
            if out:
                return out


@operator_for(PProject)
class ProjectOp(UnaryOperator):
    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.fns = [compile_expr(e, plan.child.schema) for e in plan.exprs]
        if ctx.columnar:
            self.kernels = [
                compile_expr_columnar(e, plan.child.schema)
                for e in plan.exprs
            ]

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        batch = self.child.next_batch(max_rows)
        if batch is None:
            return None
        if is_columnar(batch):
            return ColumnBatch(
                self.plan.schema,
                [kernel(batch) for kernel in self.kernels],
                len(batch),
            )
        return list(zip(*[map(fn, batch) for fn in self.fns]))


@operator_for(PNarrow)
class NarrowOp(UnaryOperator):
    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        batch = self.child.next_batch(max_rows)
        if batch is None:
            return None
        positions = self.plan.positions
        if is_columnar(batch):
            return ColumnBatch(
                self.plan.schema,
                [batch.columns[i] for i in positions],
                len(batch),
            )
        if len(positions) == 1:
            i = positions[0]
            return [(row[i],) for row in batch]
        return [tuple(row[i] for i in positions) for row in batch]


@operator_for(PLimit)
class LimitOp(UnaryOperator):
    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self._remaining = 0

    def _open(self):
        super()._open()
        self._remaining = max(0, self.plan.count)

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._remaining <= 0:
            return None
        # cap the child's production at what we still need, so upstream
        # actual row counts don't depend on the batch size
        cap = self._remaining if max_rows is None else min(
            max_rows, self._remaining
        )
        batch = self.child.next_batch(cap)
        if batch is None:
            return None
        if len(batch) > self._remaining:
            batch = (
                batch.slice(0, self._remaining)
                if is_columnar(batch)
                else batch[: self._remaining]
            )
        self._remaining -= len(batch)
        return batch


@operator_for(PMaterialize)
class MaterializeOp(UnaryOperator):
    """Cache the child's rows for repeated scans.

    The cache lives on the operator object — built on first demand,
    served across rescans (``close()``/``open()`` just rewinds the read
    position), gone when the execution's operator tree is dropped.  The
    child runs exactly once and is closed as soon as the cache is full.
    """

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self._cache: Optional[List[Row]] = None
        self._pos = 0
        self._child_open = False

    def _open(self):
        self._pos = 0
        if self._cache is None and not self._child_open:
            self.child.open()
            self._child_open = True

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._cache is None:
            cache: List[Row] = []
            while True:
                batch = self.child.next_batch()
                if batch is None:
                    break
                cache.extend(self._as_rows(batch))
            self._cache = cache
            self.child.close()
            self._child_open = False
        batch = self._cache[self._pos : self._pos + self._target(max_rows)]
        if not batch:
            return None
        self._pos += len(batch)
        return batch

    def _close(self):
        if self._child_open:
            self.child.close()
            self._child_open = False
