"""The batched Operator protocol: ``open() / next_batch() / close()``.

Every physical plan node executes as an :class:`Operator` instance that
produces **batches** — plain lists of row tuples, at most
``ctx.batch_size`` rows each for the leaf producers (operators with join
or group fan-out may emit larger batches).  The lifecycle:

* ``open()`` — make the operator ready to produce.  Must be cheap and do
  no I/O; all real work (index probes, hash builds, sort runs) happens
  lazily inside ``next_batch`` so FULL instrumentation attributes it to
  the right node.
* ``next_batch(max_rows=None)`` — return the next batch, or ``None``
  when exhausted.  An empty list is a legal "nothing yet" answer but
  operators avoid it.  ``max_rows`` is a cap below ``batch_size`` that
  consumers like Limit push down so producers don't overshoot — this
  keeps actual row counts identical at every batch size (and identical
  to the old tuple-at-a-time engine).
* ``close()`` — release per-run state.  ``close()`` followed by
  ``open()`` is a **rescan** (how a nested loop re-reads its inner side);
  state that intentionally survives a rescan — Materialize's cache —
  lives on the operator object, which exists for one execution only.

Instrumentation happens here, once, at batch boundaries: the public
``next_batch`` wraps the subclass hook ``_next_batch`` with whatever
``ctx.instrument`` asks for (row/loop counts at ROWS; wall-clock and
attributed buffer/disk I/O deltas at FULL, inclusive of children exactly
like the old per-``next()`` wrappers, but paid per batch instead of per
row).  Subclasses implement ``_open`` / ``_next_batch`` / ``_close`` and
never touch ``plan.actual_*`` themselves.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

from ..obs import InstrumentLevel
from ..physical import PhysicalError, PhysicalPlan
from .columnar import AnyBatch, ColumnBatch, as_row_batch
from .context import ExecContext

Row = Tuple[Any, ...]
Batch = List[Row]

_REGISTRY: Dict[type, Type["Operator"]] = {}


def operator_for(
    plan_type: type,
) -> Callable[[Type["Operator"]], Type["Operator"]]:
    """Class decorator registering an Operator for a plan node type."""

    def register(cls: Type["Operator"]) -> Type["Operator"]:
        _REGISTRY[plan_type] = cls
        return cls

    return register


def build_operator(plan: PhysicalPlan, ctx: ExecContext) -> "Operator":
    """Instantiate the operator tree for *plan* (nothing runs yet)."""
    cls = _REGISTRY.get(type(plan))
    if cls is None:
        raise PhysicalError(f"no operator for {type(plan).__name__}")
    return cls(plan, ctx)


class Operator:
    """Base class for one executing plan node (see module docstring)."""

    def __init__(self, plan: PhysicalPlan, ctx: ExecContext):
        self.plan = plan
        self.ctx = ctx
        self.batch_size = ctx.batch_size
        self._level = ctx.instrument
        self._started = False  # first batch of the current open() pulled?
        self._fell_back = False  # has _as_rows converted a ColumnBatch yet?
        if self._level is InstrumentLevel.FULL:
            self._bstats = ctx.pool.stats
            self._dstats = ctx.pool.disk.stats

    # -- public lifecycle (instrumented) ------------------------------------

    def open(self) -> None:
        self._started = False
        self._open()

    def next_batch(self, max_rows: Optional[int] = None) -> Optional[Batch]:
        level = self._level
        if level is InstrumentLevel.OFF:
            return self._next_batch(max_rows)
        plan = self.plan
        if not self._started:
            # loops counts iterations that actually started, mirroring the
            # generator engine where a constructed-but-never-pulled node
            # recorded nothing
            self._started = True
            plan.start_loop()
        if level is InstrumentLevel.ROWS:
            batch = self._next_batch(max_rows)
            plan.accumulate_actuals(rows=len(batch) if batch else 0)
            return batch
        # FULL: wall-clock + attributed I/O around the whole batch.  The
        # interval covers the children's work too (their next_batch only
        # runs inside ours) — inclusive, PostgreSQL-style.
        bstats = self._bstats
        dstats = self._dstats
        h0 = bstats.hits
        r0 = dstats.reads
        w0 = dstats.writes
        t0 = time.perf_counter()
        try:
            batch = self._next_batch(max_rows)
        except BaseException:
            plan.accumulate_actuals(
                rows=0,
                time_ms=(time.perf_counter() - t0) * 1000.0,
                hits=bstats.hits - h0,
                reads=dstats.reads - r0,
                writes=dstats.writes - w0,
            )
            raise
        plan.accumulate_actuals(
            rows=len(batch) if batch else 0,
            time_ms=(time.perf_counter() - t0) * 1000.0,
            hits=bstats.hits - h0,
            reads=dstats.reads - r0,
            writes=dstats.writes - w0,
        )
        return batch

    def close(self) -> None:
        self._close()

    # -- subclass hooks -----------------------------------------------------

    def _open(self) -> None:
        raise NotImplementedError

    def _next_batch(self, max_rows: Optional[int] = None) -> Optional[Batch]:
        raise NotImplementedError

    def _close(self) -> None:
        pass

    def _target(self, max_rows: Optional[int]) -> int:
        """Rows to aim for this call: ``batch_size`` unless capped lower."""
        if max_rows is None or max_rows >= self.batch_size:
            return self.batch_size
        return max_rows

    def _as_rows(self, batch) -> Batch:
        """Row view of an input *batch*, for an operator (or a path of
        one: the Grace spill, the per-RID index join loop) with no
        columnar form.  Row batches pass through; the first :class:`ColumnBatch` converted marks the plan node
        ``engine=rows`` in ``EXPLAIN ANALYZE`` and counts one row fallback
        for this operator instance, however many batches follow."""
        if isinstance(batch, ColumnBatch):
            if not self._fell_back:
                self._fell_back = True
                self.plan.actual_row_fallback = True
                self.ctx.metrics.row_fallbacks += 1
            return batch.to_rows()
        return batch

    # -- convenience --------------------------------------------------------

    def rows(self):
        """Iterate the remaining output row by row (internal consumers —
        cursors, spill writers; the engine proper moves batches)."""
        while True:
            batch = self.next_batch()
            if batch is None:
                return
            yield from as_row_batch(batch)


class UnaryOperator(Operator):
    """Operator with exactly one input; owns the child's lifecycle."""

    def __init__(self, plan: PhysicalPlan, ctx: ExecContext):
        super().__init__(plan, ctx)
        self.child = build_operator(plan.children()[0], ctx)

    def _open(self) -> None:
        self.child.open()

    def _close(self) -> None:
        self.child.close()


class BatchSlicer:
    """Serves a stream of batches of any size — row lists or
    :class:`ColumnBatch`, one per probe batch of a join — in pieces of at
    most the rows the consumer asked for; the rest of a batch waits for
    the next call, and the stream is only advanced once it is used up
    (so a ``Limit`` above sees the same row counts at every batch size).
    """

    __slots__ = ("_batches", "_pending")

    def __init__(self, batches: Iterator[AnyBatch]):
        self._batches = batches
        self._pending: Optional[AnyBatch] = None

    def next(self, n: int) -> Optional[AnyBatch]:
        pending = self._pending
        if pending is None:
            pending = next(self._batches, None)
            if pending is None:
                return None
        if len(pending) <= n:
            self._pending = None
            return pending
        if isinstance(pending, ColumnBatch):
            self._pending = pending.slice(n, len(pending))
            return pending.slice(0, n)
        self._pending = pending[n:]
        return pending[:n]


class BatchCursor:
    """Row-at-a-time view over an operator's batches.

    Merge join (and anything else that needs single-row lookahead) reads
    through one of these; ``next_row`` refills from ``next_batch`` so the
    producer still runs batched.  *as_rows* is the consumer's
    ``_as_rows``, so a converted ColumnBatch is charged to the operator
    that needed rows.
    """

    __slots__ = ("op", "_as_rows", "_batch", "_pos")

    def __init__(self, op: Operator, as_rows=as_row_batch):
        self.op = op
        self._as_rows = as_rows
        self._batch: Batch = []
        self._pos = 0

    def next_row(self) -> Optional[Row]:
        while self._pos >= len(self._batch):
            batch = self.op.next_batch()
            if batch is None:
                return None
            self._batch = self._as_rows(batch)
            self._pos = 0
        row = self._batch[self._pos]
        self._pos += 1
        return row
