"""Execution facade: physical plan -> rows, via the batched Operator engine.

The operators themselves live in the per-family modules (``scans``,
``joins``, ``agg_sort``, ``misc``) as :class:`~.operator.Operator`
subclasses; importing this module registers all of them.  This module
keeps the two entry points the rest of the engine builds on:

``run(plan, ctx)`` executes to completion and returns the row list,
resetting per-node actuals first and annotating them as it goes (what is
measured follows ``ctx.instrument`` — see :mod:`repro.obs`): OFF is bare
batches, ROWS annotates actual row/loop counts, FULL adds per-batch
wall-clock and attributed buffer/disk I/O (inclusive of children,
PostgreSQL-style) — the level ``EXPLAIN ANALYZE`` runs at.

``execute(plan, ctx)`` is the streaming facade: a row iterator over the
operator tree for consumers that may stop early.  Both entry points bump
``ctx.metrics.rows_emitted`` batch by batch as output is drained, so the
counter is correct even for abandoned iterations.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Tuple

# importing the operator families populates the plan-type registry
from . import agg_sort, joins, misc, scans  # noqa: F401
from .columnar import as_row_batch
from .context import ExecContext
from .operator import Operator, build_operator
from ..physical import PhysicalPlan

Row = Tuple[Any, ...]


def execute(plan: PhysicalPlan, ctx: ExecContext) -> Iterator[Row]:
    """Stream *plan*'s rows lazily (nothing runs until iterated)."""
    root = build_operator(plan, ctx)
    return _stream(root, ctx)


def _stream(root: Operator, ctx: ExecContext) -> Iterator[Row]:
    root.open()
    try:
        while True:
            batch = root.next_batch()
            if batch is None:
                break
            ctx.metrics.rows_emitted += len(batch)
            yield from as_row_batch(batch)
    finally:
        root.close()


def run(plan: PhysicalPlan, ctx: ExecContext) -> List[Row]:
    """Execute to completion, annotating actuals on every node."""
    plan.reset_actuals()
    root = build_operator(plan, ctx)
    rows: List[Row] = []
    activity = ctx.activity
    if activity is not None:
        activity.current_operator = type(plan).__name__
    try:
        root.open()
        while True:
            batch = root.next_batch()
            if batch is None:
                break
            ctx.metrics.rows_emitted += len(batch)
            rows.extend(as_row_batch(batch))
            if activity is not None:
                activity.rows_produced = len(rows)
    finally:
        try:
            root.close()
        finally:
            ctx.cleanup()
    return rows
