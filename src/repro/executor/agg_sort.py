"""Blocking operators: external sort, aggregation, distinct.

Sort spills fixed-size runs through temp heap files and k-way-merges
them, exactly as the generator engine did (run boundaries are sliced to
``max_rows`` regardless of the producer's batch size, so spill behaviour
is batch-size independent); the input and each run are sorted on native
key values (``sortutil.sorted_rows``).  Aggregation evaluates group keys
and argument expressions once per batch.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..expr import compile_expr
from ..expr.vector import compile_expr_columnar
from ..physical import PAggregate, PDistinct, PSort
from .aggregate import AggregateState, CodeFold
from .columnar import ColumnBatch, is_columnar, kernel_values
from .operator import Batch, Row, UnaryOperator, operator_for
from .sortutil import make_key_fn, sorted_rows


@operator_for(PSort)
class SortOp(UnaryOperator):
    """External merge sort through temp files when input exceeds work
    memory; pure in-memory sort otherwise."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        child_schema = plan.child.schema
        self.evaluators = [compile_expr(e, child_schema) for e, _ in plan.keys]
        self.directions = [asc for _, asc in plan.keys]
        self.key_fn = make_key_fn(self.evaluators, self.directions)
        self._sorted: Optional[List[Row]] = None
        self._pos = 0
        self._merge: Optional[Iterator[Row]] = None

    def _open(self):
        super()._open()
        self._sorted = None
        self._pos = 0
        self._merge = None

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._sorted is None and self._merge is None:
            self._build()
        n = self._target(max_rows)
        if self._sorted is not None:
            batch = self._sorted[self._pos : self._pos + n]
            if not batch:
                return None
            self._pos += len(batch)
            return batch
        batch = list(islice(self._merge, n))
        return batch or None

    def _build(self) -> None:
        ctx = self.ctx
        plan = self.plan
        child_schema = plan.child.schema
        max_rows = ctx.max_rows_in_memory(child_schema)

        runs = []
        buffer: List[Row] = []
        while True:
            batch = self.child.next_batch()
            if batch is None:
                break
            batch = self._as_rows(batch)
            i = 0
            while i < len(batch):
                take = min(max_rows - len(buffer), len(batch) - i)
                buffer.extend(batch[i : i + take])
                i += take
                if len(buffer) >= max_rows:
                    runs.append(_write_run(ctx, child_schema, self._sort(buffer)))
                    buffer = []
        if not runs:
            self._sorted = self._sort(buffer)
            return
        if buffer:
            runs.append(_write_run(ctx, child_schema, self._sort(buffer)))
        ctx.metrics.spills += 1
        self._merge = self._merge_runs(runs)

    def _sort(self, rows: List[Row]) -> List[Row]:
        return sorted_rows(rows, self.evaluators, self.directions)

    def _merge_runs(self, runs) -> Iterator[Row]:
        """k-way merge of sorted run files."""
        key_fn = self.key_fn
        streams = [run_file.scan_rows() for run_file in runs]
        heap: List[Tuple[Any, int, Row]] = []
        for i, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                heapq.heappush(heap, (key_fn(first), i, first))
        while heap:
            _, i, row = heapq.heappop(heap)
            yield row
            nxt = next(streams[i], None)
            if nxt is not None:
                heapq.heappush(heap, (key_fn(nxt), i, nxt))
        for run_file in runs:
            self.ctx.drop_temp(run_file)

    def _close(self):
        self._sorted = None
        self._merge = None
        super()._close()


def _write_run(ctx, schema, rows: List[Row]):
    temp = ctx.create_temp(schema)
    for row in rows:
        temp.insert(row)
    return temp


@operator_for(PAggregate)
class AggregateOp(UnaryOperator):
    """Hash aggregation (or stream aggregation over sorted input).

    The row engine buckets each batch's rows by key in a dict and folds
    every group's values into its ``Accumulator``s.  Under a columnar
    context hash and global aggregation fold by group code instead
    (``_fold_codes``): a dict maps each batch's distinct key tuples to
    group ids, numbered in order of first appearance, and a ``CodeFold``
    folds the argument kernels' arrays per group with numpy.  Either way
    each group is folded in row order — float ``SUM``/``AVG`` are order-
    and association-sensitive, and bit-identical results across engines
    are part of the differential-testing contract.  Streaming
    aggregation keeps the ``Accumulator`` fold and yields run by run.
    """

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        child_schema = plan.child.schema
        self.state = AggregateState(plan.aggs)
        self.group_fns = [
            compile_expr(g, child_schema) for g in plan.group_exprs
        ]
        self.arg_fns = [
            None if agg.arg is None else compile_expr(agg.arg, child_schema)
            for agg in plan.aggs
        ]
        if ctx.columnar:
            self.group_kernels = [
                compile_expr_columnar(g, child_schema)
                for g in plan.group_exprs
            ]
            self.arg_kernels = [
                None
                if agg.arg is None
                else compile_expr_columnar(agg.arg, child_schema)
                for agg in plan.aggs
            ]
        self._out: Optional[Iterator[Row]] = None

    def _open(self):
        super()._open()
        self._out = None

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._out is None:
            self._out = self._aggregate()
        batch = list(islice(self._out, self._target(max_rows)))
        return batch or None

    def _group_keys(self, batch: Batch) -> List[Tuple[Any, ...]]:
        if is_columnar(batch):
            columns = [
                kernel_values(*kernel(batch))
                for kernel in self.group_kernels
            ]
        else:
            columns = [map(fn, batch) for fn in self.group_fns]
        return list(zip(*columns))

    def _arg_columns(self, batch: Batch) -> List[Optional[List[Any]]]:
        if is_columnar(batch):
            return [
                None if kernel is None else kernel_values(*kernel(batch))
                for kernel in self.arg_kernels
            ]
        return [
            None if fn is None else list(map(fn, batch))
            for fn in self.arg_fns
        ]

    def _update_accs(self, accs, arg_columns, indices) -> None:
        """Fold the rows at *indices* of the current batch into *accs*."""
        n = len(indices)
        for acc, column in zip(accs, arg_columns):
            if column is None:
                acc.add_star_many(n)
            elif n == len(column):
                acc.add_many(column)
            elif isinstance(indices, range):
                acc.add_many(column[indices.start : indices.stop])
            else:
                acc.add_many([column[i] for i in indices])

    def _aggregate(self) -> Iterator[Row]:
        if self.plan.streaming and self.plan.group_exprs:
            return self._stream_groups()
        if self.ctx.columnar:
            return self._fold_codes()
        if not self.plan.group_exprs:
            return self._global()
        return self._hash_groups()

    def _stream_groups(self) -> Iterator[Row]:
        state = self.state
        current_key: Optional[Tuple[Any, ...]] = None
        accs = None
        started = False
        while True:
            batch = self.child.next_batch()
            if batch is None:
                break
            arg_columns = self._arg_columns(batch)
            keys = self._group_keys(batch)
            # fold each run of equal keys in one shot (input is sorted on
            # the group keys, so runs are contiguous)
            start = 0
            total = len(keys)
            while start < total:
                key = keys[start]
                end = start + 1
                while end < total and keys[end] == key:
                    end += 1
                if not started or key != current_key:
                    if started:
                        yield current_key + state.finish(accs)
                    current_key = key
                    accs = state.new_group()
                    started = True
                self._update_accs(accs, arg_columns, range(start, end))
                start = end
        if started:
            yield current_key + state.finish(accs)

    def _global(self) -> Iterator[Row]:
        state = self.state
        accs = state.new_group()
        while True:
            batch = self.child.next_batch()
            if batch is None:
                break
            arg_columns = self._arg_columns(batch)
            self._update_accs(accs, arg_columns, range(len(batch)))
        yield state.finish(accs)

    def _hash_groups(self) -> Iterator[Row]:
        state = self.state
        groups: Dict[Tuple[Any, ...], list] = {}
        while True:
            batch = self.child.next_batch()
            if batch is None:
                break
            arg_columns = self._arg_columns(batch)
            # bucket batch positions by key, then fold group by group
            buckets: Dict[Tuple[Any, ...], List[int]] = {}
            for i, key in enumerate(self._group_keys(batch)):
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = bucket = []
                bucket.append(i)
            for key, indices in buckets.items():
                accs = groups.get(key)
                if accs is None:
                    groups[key] = accs = state.new_group()
                self._update_accs(accs, arg_columns, indices)
        for key, accs in groups.items():
            yield key + state.finish(accs)

    def _fold_codes(self) -> Iterator[Row]:
        fold = CodeFold(self.plan.aggs)
        # key tuple -> group code; a global aggregate is the one group ()
        index: Dict[Tuple[Any, ...], int] = (
            {} if self.plan.group_exprs else {(): 0}
        )
        while True:
            batch = self.child.next_batch()
            if batch is None:
                break
            codes = self._codes(index, batch)
            fold.fold(codes, len(index), self._arg_arrays(batch))
        return iter(
            [key + row for key, row in zip(index, fold.results(len(index)))]
        )

    def _codes(
        self, index: Dict[Tuple[Any, ...], int], batch: Batch
    ) -> np.ndarray:
        """Each row's group code; a key not in *index* gets the next code
        (its tuple is compared as the row engine's bucket dict compares
        it: NULLs are one group, a NaN is never equal to another)."""
        if not self.plan.group_exprs:
            return np.zeros(len(batch), dtype=np.intp)
        keys = self._group_keys(batch)
        ids = dict.fromkeys(keys)
        for key in ids:
            code = index.get(key)
            if code is None:
                code = index[key] = len(index)
            ids[key] = code
        return np.fromiter(map(ids.__getitem__, keys), np.intp, len(keys))

    def _arg_arrays(self, batch: Batch) -> List[Any]:
        """Each aggregate's argument as a kernel result ``(data, valid)``
        (``None`` for ``COUNT(*)``)."""
        kernels = self.arg_kernels
        if not is_columnar(batch) and any(k is not None for k in kernels):
            batch = ColumnBatch.from_rows(self.plan.child.schema, batch)
        return [None if k is None else k(batch) for k in kernels]

    def _close(self):
        self._out = None
        super()._close()


@operator_for(PDistinct)
class DistinctOp(UnaryOperator):
    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self._seen = set()

    def _open(self):
        super()._open()
        self._seen = set()

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        seen = self._seen
        while True:
            batch = self.child.next_batch(max_rows)
            if batch is None:
                return None
            out = []
            for row in self._as_rows(batch):
                if row not in seen:
                    seen.add(row)
                    out.append(row)
            if out:
                return out
