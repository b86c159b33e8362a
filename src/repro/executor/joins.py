"""Join operators: block nested-loop, index nested-loop, sort-merge, hash.

The nested-loop inner side is rescanned per outer block through the
operator lifecycle — ``close()`` then ``open()`` — instead of rebuilding
a generator tree.
The hash join's Grace spill path (temp-file partitioning through the
buffer pool) is unchanged from the generator engine.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..expr import compile_expr, compile_predicate
from ..expr.vector import compile_expr_columnar, compile_predicate_columnar
from ..index.keys import MAX_KEY, MIN_KEY
from ..physical import (
    PHashJoin,
    PIndexNLJoin,
    PNestedLoopJoin,
    PSortMergeJoin,
)
from .columnar import AnyBatch, ColumnBatch, is_columnar, kernel_values
from .operator import (
    Batch,
    BatchCursor,
    BatchSlicer,
    Operator,
    Row,
    build_operator,
    operator_for,
)
from .pagedecode import gather_rids
from .scans import RID, TableReader, table_overlay
from .sortutil import cmp_values


class _BinaryJoinOp(Operator):
    """Shared plumbing: two child operators plus a residual predicate."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.left = build_operator(plan.left, ctx)
        self.right = build_operator(plan.right, ctx)
        self._gen: Optional[Iterator[Row]] = None

    def _open(self):
        self.left.open()
        self.right.open()
        self._gen = None

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._gen is None:
            self._gen = self._join_rows()
        batch = list(islice(self._gen, self._target(max_rows)))
        return batch or None

    def _join_rows(self) -> Iterator[Row]:
        raise NotImplementedError

    def _close(self):
        self._gen = None
        self.left.close()
        self.right.close()


@operator_for(PNestedLoopJoin)
class NestedLoopJoinOp(_BinaryJoinOp):
    """Block nested-loop: outer read once in blocks sized to the work
    memory, inner rescanned (``close()``+``open()``) per block."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.condition = (
            compile_predicate(plan.condition, plan.schema)
            if plan.condition is not None
            else None
        )
        self._inner_open = False

    def _open(self):
        # the inner side opens lazily, once per non-empty outer block
        self.left.open()
        self._inner_open = False
        self._gen = None

    def _blocks(self) -> Iterator[List[Row]]:
        """Outer blocks of exactly ``block_rows`` rows (last may be short),
        regardless of the producer's batch size."""
        plan = self.plan
        block_rows = self.ctx.max_rows_in_memory(
            plan.left.schema, plan.block_pages
        )
        block: List[Row] = []
        while True:
            batch = self.left.next_batch()
            if batch is None:
                break
            batch = self._as_rows(batch)
            i = 0
            while i < len(batch):
                take = min(block_rows - len(block), len(batch) - i)
                block.extend(batch[i : i + take])
                i += take
                if len(block) >= block_rows:
                    yield block
                    block = []
        if block:
            yield block

    def _join_rows(self) -> Iterator[Row]:
        condition = self.condition
        metrics = self.ctx.metrics
        inner = self.right
        for block in self._blocks():
            # one rescan of the inner per outer block
            if self._inner_open:
                inner.close()
            inner.open()
            self._inner_open = True
            while True:
                inner_batch = inner.next_batch()
                if inner_batch is None:
                    break
                for inner_row in self._as_rows(inner_batch):
                    metrics.comparisons += len(block)
                    combined = [outer + inner_row for outer in block]
                    if condition is None:
                        yield from combined
                    else:
                        yield from filter(condition, combined)

    def _close(self):
        self._gen = None
        self.left.close()
        if self._inner_open:
            self.right.close()
            self._inner_open = False


#: an outer batch that matches fewer RIDs than this is fetched RID by RID:
#: a gather pays ≈0.1 ms of numpy calls whatever the count, a
#: ``heap.fetch`` 5–8 µs a row.  Measured (EXPERIMENTS.md E29): the two
#: meet at 24–32 RIDs on rows with a TEXT column, between 100 and 200 on
#: all-numeric rows lying one to a page; at 64 the gather is 0.80× the
#: loop's time on the first and 1.05× on the second
GATHER_MIN_RIDS = 64


@operator_for(PIndexNLJoin)
class IndexNLJoinOp(TableReader):
    """For each outer row, probe an index on the inner table.

    The row engine fetches one heap row per match, interleaved with the
    index probes: that page access pattern is what the paper's tables
    count.  Under a columnar context the join works an outer batch at a
    time — probe the index for every key into ``(pages, slots)`` arrays
    (``BPlusTree.probe``), then *gather* the matched RIDs with one fix
    per heap page (``pagedecode.gather_rids``) and emit
    outer ⊕ inner as one :class:`ColumnBatch`, rows in the row engine's
    order.  Two cases keep the per-RID loop (``_fetch_rows``): an outer
    batch under ``GATHER_MIN_RIDS`` matches, and — for the whole
    execution — a snapshot overlay on the inner table.
    """

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.left = build_operator(plan.left, ctx)
        self.key_fn = compile_expr(plan.outer_key, plan.left.schema)
        self.residual = (
            compile_predicate(plan.residual, plan.schema)
            if plan.residual is not None
            else None
        )
        if ctx.columnar:
            self.key_col = compile_expr_columnar(
                plan.outer_key, plan.left.schema
            )
            self.residual_col = (
                compile_predicate_columnar(plan.residual, plan.schema)
                if plan.residual is not None
                else None
            )
        self._gen: Optional[Iterator[Row]] = None
        self._slicer: Optional[BatchSlicer] = None

    def _open(self):
        self.left.open()
        self._gen = None
        self._slicer = None

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._gen is None and self._slicer is None:
            self.plan.table.access.index_scans += 1
            # snapshot overlay on the probed (inner) table: suppress index
            # entries whose heap row is not what the snapshot sees, and
            # probe the visible images by their leading key component
            skip, extra = self._inner_overlay()
            if self.ctx.columnar and skip is None:
                self._slicer = BatchSlicer(self._join_columnar())
            else:
                self._gen = self._join_rows(skip, extra)
        n = self._target(max_rows)
        if self._slicer is not None:
            return self._slicer.next(n)
        batch = list(islice(self._gen, n))
        return batch or None

    def _bounds(self, key: Any) -> Tuple[Any, Any]:
        """The inclusive index range outer key *key* matches: the key
        itself, or on a composite index every entry whose leading
        component equals it."""
        if getattr(self.plan.index, "is_composite", False):
            return (key, MIN_KEY), (key, MAX_KEY)
        return key, key

    def _matches(self, keys: List[Any]) -> Iterator[Tuple[int, List[RID]]]:
        """``(outer position, matching rids)`` for every non-NULL key of
        an outer batch, each probe made as the pair is asked for."""
        structure = self.plan.index.structure
        metrics = self.ctx.metrics
        for i, key in enumerate(keys):
            if key is None:
                continue
            metrics.hash_probes += 1
            entries = structure.range_scan(*self._bounds(key))
            yield i, [rid for _, rid in entries]

    def _fetch_rows(
        self, outer_rows: Batch, keys, matches, skip=None, extra=None
    ) -> List[Row]:
        """The per-RID loop: one ``heap.fetch`` per match, made as
        *matches* hands the RIDs over — given ``_matches`` itself, probes
        and fetches interleave outer row by outer row."""
        heap_fetch = self.plan.table.heap.fetch
        out: List[Row] = []
        for i, rids in matches:
            outer_row = outer_rows[i]
            for rid in rids:
                if skip is not None and rid in skip:
                    continue
                inner_row = heap_fetch(rid)
                if inner_row is None:
                    continue
                out.append(outer_row + inner_row)
            if extra is not None:
                for inner_row in extra.get(keys[i], ()):
                    out.append(outer_row + inner_row)
        return out

    def _residual_rows(self, rows: List[Row]) -> List[Row]:
        if self.residual is None:
            return rows
        return list(filter(self.residual, rows))

    def _join_rows(self, skip, extra) -> Iterator[Row]:
        while True:
            outer = self.left.next_batch()
            if outer is None:
                return
            outer = self._as_rows(outer)
            keys = list(map(self.key_fn, outer))
            yield from self._residual_rows(
                self._pull_counted(
                    lambda: self._fetch_rows(
                        outer, keys, self._matches(keys), skip, extra
                    )
                )
            )

    def _join_columnar(self) -> Iterator[AnyBatch]:
        while True:
            outer = self.left.next_batch()
            if outer is None:
                return
            if is_columnar(outer):
                keys = kernel_values(*self.key_col(outer))
            else:
                keys = list(map(self.key_fn, outer))
            out = self._pull_counted(lambda: self._gather(outer, keys))
            if not is_columnar(out):
                out = self._residual_rows(out)
            elif self.residual_col is not None:
                out = out.filter(self.residual_col(out))
            if out:
                yield out

    def _gather(self, outer: AnyBatch, keys: List[Any]) -> AnyBatch:
        """One outer batch joined: every key probed into ``(pages,
        slots)`` arrays, then the matched RIDs fetched by page into a
        ColumnBatch — or RID by RID into rows, when they are few."""
        plan = self.plan
        probe = plan.index.structure.probe
        metrics = self.ctx.metrics
        positions: List[int] = []
        found: List[Tuple[np.ndarray, np.ndarray]] = []
        for i, key in enumerate(keys):
            if key is None:
                continue
            metrics.hash_probes += 1
            positions.append(i)
            found.append(probe(*self._bounds(key)))
        counts = [len(pages) for pages, _ in found]
        if sum(counts) < GATHER_MIN_RIDS:
            matches = [
                (i, list(zip(pages.tolist(), slots.tolist())))
                for i, (pages, slots) in zip(positions, found)
            ]
            return self._fetch_rows(self._as_rows(outer), keys, matches)
        columns, live = gather_rids(
            plan.table.heap,
            plan.table.schema,
            np.concatenate([pages for pages, _ in found]),
            np.concatenate([slots for _, slots in found]),
        )
        take = np.repeat(np.array(positions, dtype=np.intp), counts)[live]
        if not is_columnar(outer):
            outer = ColumnBatch.from_rows(plan.left.schema, outer)
        return ColumnBatch(
            plan.schema, outer.take(take).columns + columns, len(live)
        )

    def _inner_overlay(self):
        """``(skip_rids, probe_key -> visible rows)`` under a snapshot,
        or ``(None, None)`` when the live heap is already correct."""
        plan = self.plan
        overlay = table_overlay(self.ctx, plan.table)
        if overlay is None:
            return None, None
        replace, ghosts = overlay
        skip = set(replace) | set(ghosts)
        schema = plan.table.schema
        lead = schema.index_of(plan.index.columns[0])
        extra: dict = {}
        rows = [r for r in replace.values() if r is not None]
        rows.extend(ghosts.values())
        for row in rows:
            key = row[lead]
            if key is None:
                continue  # probes skip NULL keys, matching the index
            extra.setdefault(key, []).append(row)
        return skip, extra

    def _close(self):
        self._gen = None
        self._slicer = None
        self.left.close()


@operator_for(PSortMergeJoin)
class SortMergeJoinOp(_BinaryJoinOp):
    """Merge join on equality keys over pre-sorted inputs."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.left_key = compile_expr(plan.left_key, plan.left.schema)
        self.right_key = compile_expr(plan.right_key, plan.right.schema)
        self.residual = (
            compile_predicate(plan.residual, plan.schema)
            if plan.residual is not None
            else None
        )

    def _join_rows(self) -> Iterator[Row]:
        left_key = self.left_key
        right_key = self.right_key
        metrics = self.ctx.metrics
        left = BatchCursor(self.left, self._as_rows)
        right = BatchCursor(self.right, self._as_rows)

        lrow = left.next_row()
        rrow = right.next_row()
        while lrow is not None and rrow is not None:
            lk = left_key(lrow)
            rk = right_key(rrow)
            if lk is None:
                lrow = left.next_row()
                continue
            if rk is None:
                rrow = right.next_row()
                continue
            metrics.comparisons += 1
            c = cmp_values(lk, rk)
            if c < 0:
                lrow = left.next_row()
            elif c > 0:
                rrow = right.next_row()
            else:
                # gather the full right group with this key
                group = [rrow]
                rrow = right.next_row()
                while rrow is not None and right_key(rrow) == lk:
                    group.append(rrow)
                    rrow = right.next_row()
                while lrow is not None and left_key(lrow) == lk:
                    combined = [lrow + g for g in group]
                    if self.residual is None:
                        yield from combined
                    else:
                        yield from filter(self.residual, combined)
                    lrow = left.next_row()


@operator_for(PHashJoin)
class HashJoinOp(_BinaryJoinOp):
    """Hash join building on the right input; Grace-partitions through
    temp files when the build side exceeds work memory.

    Under a columnar context the in-memory path stays columnar end to
    end: the build side is concatenated into one :class:`ColumnBatch`,
    keys come from vectorized kernels, each probe batch produces matched
    ``(probe, build)`` position lists, and the output batch is two
    ``numpy.take`` gathers — no row tuples are ever materialized.  The
    Grace spill path falls back to the row engine (``_as_rows`` marks
    the node ``engine=rows``).
    """

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.left_key = compile_expr(plan.left_key, plan.left.schema)
        self.right_key = compile_expr(plan.right_key, plan.right.schema)
        self.residual = (
            compile_predicate(plan.residual, plan.schema)
            if plan.residual is not None
            else None
        )
        self._slicer: Optional[BatchSlicer] = None
        if ctx.columnar:
            self.left_key_col = compile_expr_columnar(
                plan.left_key, plan.left.schema
            )
            self.right_key_col = compile_expr_columnar(
                plan.right_key, plan.right.schema
            )
            self.residual_col = (
                compile_predicate_columnar(plan.residual, plan.schema)
                if plan.residual is not None
                else None
            )

    def _open(self):
        super()._open()
        self._slicer = None

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if not self.ctx.columnar:
            return super()._next_batch(max_rows)
        if self._slicer is None:
            self._slicer = BatchSlicer(self._join_columnar())
        return self._slicer.next(self._target(max_rows))

    def _close(self):
        self._slicer = None
        super()._close()

    # -- columnar path ------------------------------------------------------

    def _join_columnar(self) -> Iterator[ColumnBatch]:
        plan = self.plan
        ctx = self.ctx
        build_schema = plan.right.schema
        max_build = ctx.max_rows_in_memory(build_schema)

        built: List[ColumnBatch] = []
        total = 0
        overflow = False
        while True:
            batch = self.right.next_batch()
            if batch is None:
                break
            if not is_columnar(batch):
                batch = ColumnBatch.from_rows(build_schema, batch)
            built.append(batch)
            total += len(batch)
            if total > max_build:
                overflow = True
                break

        if overflow:
            # Grace stays row-wise; re-batch its stream so downstream
            # sees ColumnBatches throughout
            build_rows = [r for b in built for r in self._as_rows(b)]
            gen = self._grace(build_rows)
            while True:
                chunk = list(islice(gen, ctx.batch_size))
                if not chunk:
                    return
                yield ColumnBatch.from_rows(plan.schema, chunk)

        build = (
            ColumnBatch.concat(built)
            if built
            else ColumnBatch.from_rows(build_schema, [])
        )
        bkeys, bvalid = self.right_key_col(build)
        # Sorted-key probe: non-NULL (and non-NaN — NaN never equals
        # anything) build positions ordered by key, stably, so equal-key
        # runs stay in insertion order exactly like dict buckets.
        sorted_keys = sorted_pos = None
        if bkeys.dtype != object:
            keep = (
                np.ones(len(build), dtype=bool)
                if bvalid is None
                else bvalid.copy()
            )
            if bkeys.dtype.kind == "f":
                keep &= ~np.isnan(bkeys)
            pos = np.flatnonzero(keep)
            order = np.argsort(bkeys[pos], kind="stable")
            sorted_pos = pos[order]
            sorted_keys = bkeys[sorted_pos]
        positions: Optional[Dict[Any, List[int]]] = None  # dict fallback

        metrics = self.ctx.metrics
        out_schema = plan.schema
        while True:
            probe = self.left.next_batch()
            if probe is None:
                return
            if not is_columnar(probe):
                probe = ColumnBatch.from_rows(plan.left.schema, probe)
            pkeys, pvalid = self.left_key_col(probe)
            n = len(probe)
            if sorted_keys is not None and pkeys.dtype == sorted_keys.dtype:
                # the row engine probes once per non-None key (NaN is a
                # probe that finds nothing)
                metrics.hash_probes += (
                    n if pvalid is None else int(np.count_nonzero(pvalid))
                )
                lo = np.searchsorted(sorted_keys, pkeys, side="left")
                hi = np.searchsorted(sorted_keys, pkeys, side="right")
                counts = hi - lo
                if pvalid is not None:
                    counts[~pvalid] = 0
                if pkeys.dtype.kind == "f":
                    counts[np.isnan(pkeys)] = 0
                total = int(counts.sum())
                if total == 0:
                    continue
                probe_take = np.repeat(np.arange(n, dtype=np.intp), counts)
                span = np.arange(total, dtype=np.intp) - np.repeat(
                    np.cumsum(counts) - counts, counts
                )
                build_take = sorted_pos[np.repeat(lo, counts) + span]
            else:
                if positions is None:
                    positions = {}
                    for j, key in enumerate(
                        kernel_values(bkeys, bvalid)
                    ):
                        if key is None:
                            continue
                        positions.setdefault(key, []).append(j)
                probe_idx: List[int] = []
                build_idx: List[int] = []
                for i, key in enumerate(kernel_values(pkeys, pvalid)):
                    if key is None:
                        continue
                    metrics.hash_probes += 1
                    for j in positions.get(key, ()):
                        probe_idx.append(i)
                        build_idx.append(j)
                if not probe_idx:
                    continue
                probe_take = np.asarray(probe_idx, dtype=np.intp)
                build_take = np.asarray(build_idx, dtype=np.intp)
            left_out = probe.take(probe_take)
            right_out = build.take(build_take)
            out = ColumnBatch(
                out_schema,
                left_out.columns + right_out.columns,
                len(probe_take),
            )
            if self.residual_col is not None:
                out = out.filter(self.residual_col(out))
                if not out:
                    continue
            yield out

    # -- row path -----------------------------------------------------------

    def _join_rows(self) -> Iterator[Row]:
        plan = self.plan
        ctx = self.ctx
        build_schema = plan.right.schema
        max_build = ctx.max_rows_in_memory(build_schema)

        build_rows: List[Row] = []
        overflow = False
        while True:
            batch = self.right.next_batch()
            if batch is None:
                break
            build_rows.extend(batch)
            if len(build_rows) > max_build:
                overflow = True
                break

        if not overflow:
            yield from self._in_memory(build_rows)
        else:
            yield from self._grace(build_rows)

    def _in_memory(self, build_rows: List[Row]) -> Iterator[Row]:
        metrics = self.ctx.metrics
        table: dict = {}
        for row, key in zip(build_rows, map(self.right_key, build_rows)):
            if key is None:
                continue
            table.setdefault(key, []).append(row)
        while True:
            probe = self.left.next_batch()
            if probe is None:
                return
            out: List[Row] = []
            for lrow, key in zip(probe, map(self.left_key, probe)):
                if key is None:
                    continue
                metrics.hash_probes += 1
                for rrow in table.get(key, ()):
                    out.append(lrow + rrow)
            yield from self._residual_filter(out)

    def _grace(self, build_rows: List[Row]) -> Iterator[Row]:
        """Partition both inputs to temp files, then join each partition
        pair in memory."""
        plan = self.plan
        ctx = self.ctx
        metrics = ctx.metrics
        fanout = max(2, ctx.work_mem_pages - 1)
        right_parts = [
            ctx.create_temp(plan.right.schema) for _ in range(fanout)
        ]
        for row in build_rows:
            _partition_insert(right_parts, self.right_key(row), row, fanout)
        while True:  # rest of the build side
            batch = self.right.next_batch()
            if batch is None:
                break
            for row in self._as_rows(batch):
                _partition_insert(
                    right_parts, self.right_key(row), row, fanout
                )
        left_parts = [ctx.create_temp(plan.left.schema) for _ in range(fanout)]
        while True:
            batch = self.left.next_batch()
            if batch is None:
                break
            for row in self._as_rows(batch):
                _partition_insert(left_parts, self.left_key(row), row, fanout)
        metrics.spills += 1

        for lpart, rpart in zip(left_parts, right_parts):
            table: dict = {}
            for rrow in rpart.scan_rows():
                table.setdefault(self.right_key(rrow), []).append(rrow)
            out: List[Row] = []
            for lrow in lpart.scan_rows():
                metrics.hash_probes += 1
                for rrow in table.get(self.left_key(lrow), ()):
                    out.append(lrow + rrow)
            yield from self._residual_filter(out)
            ctx.drop_temp(lpart)
            ctx.drop_temp(rpart)

    def _residual_filter(self, rows: List[Row]) -> Iterable[Row]:
        if self.residual is None:
            return rows
        return filter(self.residual, rows)


def _partition_insert(parts, key: Any, row: Row, fanout: int) -> None:
    if key is None:
        return  # NULL keys never join
    parts[partition_hash(key) % fanout].insert(row)


def partition_hash(key: Any) -> int:
    """Stable 32-bit hash the Grace join partitions its spill files by.

    Properties the join relies on:

    * deterministic across processes (no ``PYTHONHASHSEED`` dependence
      for strings — FNV-1a over the UTF-8 bytes),
    * equal SQL values hash equal even across numeric types
      (``1 == 1.0`` → integral floats are canonicalized to int),
    * ``True == 1`` follows from Python's own bool/int identity.
    """
    if isinstance(key, str):
        h = 2166136261
        for b in key.encode("utf-8"):
            h = ((h ^ b) * 16777619) & 0xFFFFFFFF
        return h
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    return hash(key) & 0xFFFFFFFF
