"""Physical plan operators.

A physical plan fixes every execution decision: access paths, join
algorithms, join order, sort placement.  Planners annotate each node with
estimated cardinality (``est_rows``) and estimated cost (``est_cost``, a
``repro.optimizer.cost.Cost``); the executor turns the tree into iterators
and fills in nothing — actual metrics come from the buffer pool and disk.

EXPLAIN output renders this tree with both estimates and (after execution)
actuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..catalog import IndexInfo, TableInfo
from ..expr import AggCall, Expr
from ..types import Column, DataType, Schema


class PhysicalError(Exception):
    """Raised on malformed physical plans."""


@dataclass
class RangeBound:
    """One side of an index range: value + inclusivity.  ``None`` = open."""

    value: Any = None
    inclusive: bool = True
    unbounded: bool = True

    @classmethod
    def at(cls, value: Any, inclusive: bool) -> "RangeBound":
        return cls(value, inclusive, False)

    @classmethod
    def open(cls) -> "RangeBound":
        return cls()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.unbounded:
            return "*"
        return f"{'=' if self.inclusive else ''}{self.value!r}"


class PhysicalPlan:
    """Base class for physical operators."""

    schema: Schema
    est_rows: float = 0.0
    est_cost: Any = None  # repro.optimizer.cost.Cost, untyped to avoid cycle
    #: estimation-target key stamped by the optimizer at pricing time;
    #: execution actuals harvested under it feed the FeedbackStore
    feedback_key: Optional[str] = None
    # -- actuals, filled by instrumented execution --------------------------
    actual_rows: Optional[int] = None
    actual_loops: int = 0  # times this node's iterator was (re)started
    actual_time_ms: Optional[float] = None  # inclusive, FULL level only
    actual_hits: Optional[int] = None  # buffer-pool hits attributed here
    actual_reads: Optional[int] = None  # disk page reads attributed here
    actual_writes: Optional[int] = None  # disk page writes attributed here
    #: this node turned ColumnBatch input into row tuples (the operator,
    #: or the path of it that ran, has no columnar form)
    actual_row_fallback: bool = False

    def children(self) -> Tuple["PhysicalPlan", ...]:
        return ()

    def describe(self) -> str:  # pragma: no cover - overridden
        return type(self).__name__

    # -- actuals protocol (the executor's only write interface) -------------

    def reset_actuals(self) -> None:
        """Clear this subtree's actuals before a fresh execution.

        ``actual_rows`` stays ``None`` at OFF instrumentation; the other
        fields are only filled at FULL.
        """
        self.actual_rows = None
        self.actual_loops = 0
        self.actual_time_ms = None
        self.actual_hits = None
        self.actual_reads = None
        self.actual_writes = None
        self.actual_row_fallback = False
        for child in self.children():
            child.reset_actuals()

    def start_loop(self) -> None:
        """Record one (re)start of this node's iteration (a nested loop's
        inner side starts once per outer block)."""
        self.actual_loops += 1

    def accumulate_actuals(
        self,
        rows: int = 0,
        time_ms: Optional[float] = None,
        hits: Optional[int] = None,
        reads: Optional[int] = None,
        writes: Optional[int] = None,
    ) -> None:
        """Fold one batch's measurements into the running totals.

        Totals accumulate across rescans; the first call flips the
        ``None`` sentinels to real counters so partially-executed nodes
        (LIMIT-abandoned subtrees, mid-operator errors) still report what
        they did.
        """
        self.actual_rows = (self.actual_rows or 0) + rows
        if time_ms is not None:
            self.actual_time_ms = (self.actual_time_ms or 0.0) + time_ms
        if hits is not None:
            self.actual_hits = (self.actual_hits or 0) + hits
        if reads is not None:
            self.actual_reads = (self.actual_reads or 0) + reads
        if writes is not None:
            self.actual_writes = (self.actual_writes or 0) + writes

    def q_error(self) -> Optional[float]:
        """Cardinality estimation error (≥ 1) once actuals are known.
        Zero rows on either side count as one; a non-finite estimate
        reports ``inf`` rather than propagating NaN."""
        if self.actual_rows is None:
            return None
        if not math.isfinite(self.est_rows):
            return math.inf
        est = max(self.est_rows, 1.0)
        act = max(float(self.actual_rows), 1.0)
        return max(est / act, act / est)

    def _actuals_note(self) -> str:
        """PostgreSQL-style ``(actual time=.. rows=.. loops=..)`` block."""
        parts = []
        if self.actual_time_ms is not None:
            parts.append(f"time={self.actual_time_ms:.3f}ms")
        parts.append(f"rows={self.actual_rows}")
        if self.actual_loops:
            parts.append(f"loops={self.actual_loops}")
        if self.actual_hits is not None:
            parts.append(f"hits={self.actual_hits}")
        if self.actual_reads is not None:
            parts.append(f"reads={self.actual_reads}")
        if self.actual_writes:
            parts.append(f"writes={self.actual_writes}")
        q = self.q_error()
        if q is not None:
            parts.append(f"q-err={q:.2f}")
        if self.actual_row_fallback:
            parts.append("engine=rows")
        return " (actual " + " ".join(parts) + ")"

    def pretty(self, indent: int = 0, actuals: bool = False) -> str:
        cost = self.est_cost
        note = f"  (rows≈{self.est_rows:.0f}"
        if cost is not None:
            note += f", cost≈{cost.total:.1f}"
        note += ")"
        if actuals and self.actual_rows is not None:
            note += self._actuals_note()
        lines = ["  " * indent + self.describe() + note]
        for child in self.children():
            lines.append(child.pretty(indent + 1, actuals))
        return "\n".join(lines)

    def total_est_cost(self) -> float:
        return self.est_cost.total if self.est_cost is not None else 0.0


@dataclass
class PSeqScan(PhysicalPlan):
    """Full heap scan."""

    table: TableInfo
    binding: str
    predicate: Optional[Expr] = None
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.table.schema.renamed(self.binding)

    def describe(self) -> str:
        suffix = f" filter {self.predicate}" if self.predicate is not None else ""
        return f"SeqScan({self.table.name} AS {self.binding}){suffix}"


@dataclass
class PIndexScan(PhysicalPlan):
    """B+-tree range scan, fetching heap rows by RID.

    ``bound_conjuncts`` are the conjuncts ``low``/``high`` were tightened
    from.  The executor never reads them; the plan cache does, to tighten
    the range again when it binds the plan to another statement's
    literals (``optimizer.access.index_bounds``)."""

    table: TableInfo
    binding: str
    index: IndexInfo
    low: RangeBound = field(default_factory=RangeBound.open)
    high: RangeBound = field(default_factory=RangeBound.open)
    residual: Optional[Expr] = None
    bound_conjuncts: Tuple[Expr, ...] = ()
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.table.schema.renamed(self.binding)

    @property
    def is_equality(self) -> bool:
        return (
            not self.low.unbounded
            and not self.high.unbounded
            and self.low.value == self.high.value
            and self.low.inclusive
            and self.high.inclusive
        )

    def describe(self) -> str:
        clustered = " clustered" if self.index.clustered else ""
        rng = f"[{self.low} .. {self.high}]"
        suffix = f" filter {self.residual}" if self.residual is not None else ""
        return (
            f"IndexScan({self.table.name} AS {self.binding} via "
            f"{self.index.name}:btree{clustered} {rng}){suffix}"
        )


@dataclass
class PIndexOnlyScan(PhysicalPlan):
    """Answer directly from index entries (key column only, no heap I/O)."""

    table: TableInfo
    binding: str
    index: IndexInfo
    low: RangeBound = field(default_factory=RangeBound.open)
    high: RangeBound = field(default_factory=RangeBound.open)
    bound_conjuncts: Tuple[Expr, ...] = ()  # as on PIndexScan
    schema: Schema = field(init=False)

    def __post_init__(self):
        column = self.table.schema.column(self.index.column)
        self.schema = Schema(
            [Column(column.name, column.dtype, self.binding, column.nullable)]
        )

    def describe(self) -> str:
        return (
            f"IndexOnlyScan({self.table.name} AS {self.binding} via "
            f"{self.index.name} [{self.low} .. {self.high}])"
        )


@dataclass
class PFilter(PhysicalPlan):
    child: PhysicalPlan
    predicate: Expr
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Filter({self.predicate})"


@dataclass
class PProject(PhysicalPlan):
    child: PhysicalPlan
    exprs: Tuple[Expr, ...]
    names: Tuple[str, ...]
    dtypes: Tuple[DataType, ...]
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = Schema(
            Column(n, t, None) for n, t in zip(self.names, self.dtypes)
        )

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Project({', '.join(self.names)})"


@dataclass
class PNarrow(PhysicalPlan):
    child: PhysicalPlan
    positions: Tuple[int, ...]
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = Schema(self.child.schema[i] for i in self.positions)

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Narrow({', '.join(c.qualified_name for c in self.schema)})"


@dataclass
class PNestedLoopJoin(PhysicalPlan):
    """Block nested-loop join: outer read once in blocks sized to the work
    memory, inner rescanned per block.  ``block_pages=1`` degenerates to
    the classic tuple-at-a-time nested loop."""

    left: PhysicalPlan
    right: PhysicalPlan
    condition: Optional[Expr]
    block_pages: int = 1
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.left.schema.concat(self.right.schema)

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        cond = self.condition if self.condition is not None else "TRUE"
        return f"NestedLoopJoin(on {cond}, block={self.block_pages}p)"


@dataclass
class PIndexNLJoin(PhysicalPlan):
    """Index nested-loop: for each outer row, probe an index on the inner
    table with the value of ``outer_key``."""

    left: PhysicalPlan
    table: TableInfo
    binding: str
    index: IndexInfo
    outer_key: Expr
    residual: Optional[Expr] = None
    schema: Schema = field(init=False)

    def __post_init__(self):
        inner_schema = self.table.schema.renamed(self.binding)
        self.schema = self.left.schema.concat(inner_schema)

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left,)

    def describe(self) -> str:
        suffix = f" filter {self.residual}" if self.residual is not None else ""
        return (
            f"IndexNLJoin({self.table.name} AS {self.binding} via "
            f"{self.index.name} on {self.outer_key}){suffix}"
        )


@dataclass
class PSortMergeJoin(PhysicalPlan):
    """Merge join on equality keys; inputs must already be sorted on the
    keys (the planner inserts PSort where required)."""

    left: PhysicalPlan
    right: PhysicalPlan
    left_key: Expr
    right_key: Expr
    residual: Optional[Expr] = None
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.left.schema.concat(self.right.schema)

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        suffix = f" filter {self.residual}" if self.residual is not None else ""
        return f"SortMergeJoin({self.left_key} = {self.right_key}){suffix}"


@dataclass
class PHashJoin(PhysicalPlan):
    """Hash join building on the right input; falls back to Grace
    partitioning through temp files when the build side exceeds work
    memory."""

    left: PhysicalPlan
    right: PhysicalPlan
    left_key: Expr
    right_key: Expr
    residual: Optional[Expr] = None
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.left.schema.concat(self.right.schema)

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        suffix = f" filter {self.residual}" if self.residual is not None else ""
        return f"HashJoin({self.left_key} = {self.right_key}, build=right){suffix}"


@dataclass
class PSort(PhysicalPlan):
    """External merge sort through temp files when input exceeds work
    memory."""

    child: PhysicalPlan
    keys: Tuple[Tuple[Expr, bool], ...]
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(f"{e} {'ASC' if a else 'DESC'}" for e, a in self.keys)
        return f"Sort({keys})"

    @property
    def sort_columns(self) -> Tuple[str, ...]:
        """Qualified column names if all keys are plain ascending columns."""
        from ..expr import ColumnRef

        out: List[str] = []
        for expr, asc in self.keys:
            if not asc or not isinstance(expr, ColumnRef):
                return ()
            out.append(expr.name)
        return tuple(out)


@dataclass
class PAggregate(PhysicalPlan):
    """Hash aggregation (or stream aggregation when ``streaming`` and the
    input is sorted on the group keys)."""

    child: PhysicalPlan
    group_exprs: Tuple[Expr, ...]
    group_names: Tuple[str, ...]
    aggs: Tuple[AggCall, ...]
    schema: Schema
    streaming: bool = False

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        mode = "stream" if self.streaming else "hash"
        groups = ", ".join(str(g) for g in self.group_exprs) or "()"
        aggs = ", ".join(str(a) for a in self.aggs)
        return f"Aggregate[{mode}](by {groups}: {aggs})"


@dataclass
class PDistinct(PhysicalPlan):
    child: PhysicalPlan
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return "Distinct"


@dataclass
class PLimit(PhysicalPlan):
    child: PhysicalPlan
    count: int
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit({self.count})"


@dataclass
class PMaterialize(PhysicalPlan):
    """Cache the child's rows in memory for repeated scans (inner of a
    nested loop over a non-table subplan)."""

    child: PhysicalPlan
    schema: Schema = field(init=False)

    def __post_init__(self):
        self.schema = self.child.schema

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return "Materialize"


def walk_plan(plan: PhysicalPlan):
    """Pre-order traversal."""
    yield plan
    for child in plan.children():
        yield from walk_plan(child)

