"""Inter-query caching: the plan cache.

One bounded LRU cache sits in front of the optimizer.
:class:`PlanCache` plans a statement *shape* once and binds its
literals on every later execution (System R's access module, re-run
with new host variables), for SELECTs and for the scan that locates an
UPDATE/DELETE's rows alike.

**Shapes.**  The parser decides what a statement's shape is
(:mod:`repro.sql.parser`): every ``int``/``float``/``str`` literal of
the WHERE clause and of the JOIN conditions arrives as a parameter slot
(``Literal.slot``), and the statement carries its *shape key* — its
tokens with each slotted literal masked by its Python type — and the
parameter vector.  ``NULL``, booleans, ``LIMIT`` counts and LIKE
patterns stay in the key by value, and so does everything in the select
list, GROUP BY, HAVING and ORDER BY: the plan builder matches those
clauses against each other by expression equality and names output
columns after their text, so their literals are part of what the
statement *is*.  A statement with a subquery has no key and is not
cached (decomposition bakes subquery results into the plan).

**Miss.**  The statement is planned exactly as it would be cold, real
values in place, and the plan is kept as a template
(:class:`~repro.physical.bind.PlanTemplate`).  **Hit.**  The template
is bound: every node is copied, expressions holding slots are rebuilt
around the new values, and index ranges are tightened again from the
scan's ``bound_conjuncts`` with the planner's own
``optimizer.access.index_bounds`` — so ``k > ?1 AND k > ?2`` keeps the
tighter bound whichever it is this time.  A template is never executed
and a bound plan is never shared, so each result owns its actuals.

**Pinned slots.**  Planning can consume a value: constant folding
evaluates ``1 + 2`` and ``3 > 5``, an absorbing ``OR TRUE`` drops its
siblings.  A slot that no longer appears anywhere in the finished plan
is *pinned*: the entry records its value and only matches statements
carrying the same one — planning-consumed values only; a value an
index range was tightened from stays free.  A statement whose slots
are all pinned behaves like an exact-text match.

**Bucket guard.**  For each base relation whose pushed-down conjuncts
hold a free slot the entry stores ``floor(log2(max(1, rows)))`` of the
estimator's ``scan_rows`` at plan time; a lookup re-estimates with the
new values and the bucket vector must agree.  A range that was 0.1 %
and is now 40 % therefore plans again, and both *variants* stay cached
under the shape.  Estimates shown for a hit (EXPLAIN, the query log)
are those of the binding that planned the variant — within 2x of the
current binding's by construction.  The guard is skipped where it
cannot change the answer: no statistics (the estimate is a constant),
or an equality on a column whose statistics say every value is
distinct.

The key carries the rendering of the active :class:`PlannerOptions`, and
the whole cache is invalidated by anything that could change what the
optimizer would pick: DDL, ``ANALYZE``, a strategy switch.

The cache tracks hit/miss/invalidation counts for ``sys_stat_*`` and
the REPL's ``\\cache`` view.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..algebra import JoinGraph, LogicalGet
from ..catalog import TableInfo
from ..expr import (
    BoolKind,
    BoolOp,
    CmpOp,
    ColCmpConst,
    Expr,
    classify_conjunct,
    referenced_columns,
)
from ..obs import plan_fingerprint
from ..optimizer import Estimator, StatsResolver, index_bounds
from ..physical import (
    PhysicalPlan,
    PIndexNLJoin,
    PIndexOnlyScan,
    PIndexScan,
    PSeqScan,
)
from ..physical.bind import PlanTemplate, bind_expr, slots_of


@dataclass
class CacheStats:
    """Hit/miss accounting of the plan cache."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    last_invalidation: Optional[str] = None
    #: misses on a shape that *is* cached, because a pinned value or a
    #: selectivity bucket differed (also in ``misses``)
    replans: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# -- cached plans -------------------------------------------------------------


def _conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Undo ``conjoin`` (no re-normalizing: the plan's expressions already
    went through ``split_conjuncts``)."""
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.kind is BoolKind.AND:
        return list(expr.operands)
    return [expr]


def _relation_conjuncts(node: PhysicalPlan) -> List[Expr]:
    """The single-table conjuncts pushed down onto the base relation
    *node* reads — what the planner handed ``Estimator.scan_rows``."""
    if isinstance(node, PSeqScan):
        return _conjuncts(node.predicate)
    if isinstance(node, PIndexOnlyScan):
        return list(node.bound_conjuncts)
    if isinstance(node, PIndexScan):
        if node.index.is_composite:  # residual re-applies every conjunct
            return _conjuncts(node.residual)
        return list(node.bound_conjuncts) + _conjuncts(node.residual)
    # PIndexNLJoin: the inner relation's filters ride in the residual,
    # beside join conjuncts that also name outer columns
    inner = node.table.schema.renamed(node.binding)
    return [
        c
        for c in _conjuncts(node.residual)
        if all(inner.has_column(name) for name in referenced_columns(c))
    ]


def _pins_row_count(conjunct: Expr, table: TableInfo) -> bool:
    """Is *conjunct* an equality on a column whose statistics say every
    value is distinct?  Then at most one row matches, whatever the value."""
    classified = classify_conjunct(conjunct)
    if not isinstance(classified, ColCmpConst) or classified.op is not CmpOp.EQ:
        return False
    stats = table.column_stats(classified.column.split(".")[-1])
    return (
        stats is not None
        and stats.num_rows > 0
        and stats.num_distinct == stats.num_rows
    )


def relation_estimator(
    table: TableInfo, binding: str, feedback: Optional[Any] = None
) -> Estimator:
    """An estimator over the one relation *table* AS *binding*: what the
    bucket guard re-estimates with, and what prices the scan that locates
    an UPDATE/DELETE's rows."""
    graph = JoinGraph(relations={binding: LogicalGet(table, binding)})
    return Estimator(StatsResolver(graph), feedback=feedback)


class _Guard:
    """Re-estimates one base relation of a cached plan under new values."""

    def __init__(self, table: TableInfo, binding: str, conjuncts: List[Expr]):
        self.table = table
        self.conjuncts = conjuncts
        self.estimator = relation_estimator(table, binding)

    def bucket(self, params: Sequence[Any]) -> int:
        rows = self.estimator.scan_rows(
            self.table, [bind_expr(c, params) for c in self.conjuncts]
        )
        return int(math.log2(max(1.0, rows)))


class CachedPlan:
    """One variant of a statement shape: the plan template, the parameter
    values it is pinned to, and the selectivity buckets it was planned in."""

    def __init__(self, plan: PhysicalPlan, params: Sequence[Any]):
        self.template = PlanTemplate(plan)
        #: literal-free by construction, so every binding shares it
        self.fingerprint = plan_fingerprint(plan)
        nodes = self.template.nodes
        pinned = set(range(len(params))) - self.template.slots
        #: index scans whose range is tightened again at bind time
        self._ranged: List[int] = [
            i
            for i, node in enumerate(nodes)
            if isinstance(node, (PIndexScan, PIndexOnlyScan))
            and slots_of(node.bound_conjuncts)
        ]
        self.pinned: List[Tuple[int, Any]] = [
            (slot, params[slot]) for slot in sorted(pinned)
        ]
        self.guards: List[_Guard] = []
        for node in nodes:
            if not isinstance(
                node, (PSeqScan, PIndexScan, PIndexOnlyScan, PIndexNLJoin)
            ):
                continue
            table = node.table
            conjuncts = _relation_conjuncts(node)
            if (
                table.stats is not None
                and slots_of(tuple(conjuncts)) - pinned
                and not any(_pins_row_count(c, table) for c in conjuncts)
            ):
                self.guards.append(_Guard(table, node.binding, conjuncts))
        self.buckets = [guard.bucket(params) for guard in self.guards]

    def matches(self, params: Sequence[Any]) -> bool:
        for slot, value in self.pinned:
            if params[slot] != value:
                return False
        for guard, bucket in zip(self.guards, self.buckets):
            if guard.bucket(params) != bucket:
                return False
        return True

    def bind(self, params: Sequence[Any]) -> PhysicalPlan:
        """A private, executable copy of the plan for *params*."""
        copies = self.template.bind(params)
        for i in self._ranged:
            node = copies[i]
            node.low, node.high = index_bounds(
                node.index, node.binding, node.bound_conjuncts
            )
        return copies[0]


class PlanCache:
    """Bounded LRU of plan variants, grouped by statement shape.

    A *shape* is ``(options_key, stmt.key)``: the rendering of the
    active :class:`PlannerOptions` and the literal-masked statement.
    ``size`` bounds the variants over all shapes, ``SIZE`` unless set;
    ``size=0`` switches the cache off.  EXPLAIN ANALYZE always bypasses
    it so actuals reflect a cold plan.
    """

    SIZE = 128

    def __init__(self):
        self.size = self.SIZE
        self._shapes: "OrderedDict[Any, List[CachedPlan]]" = OrderedDict()
        self._variants = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        """Cached plan variants."""
        return self._variants

    @property
    def shapes(self) -> int:
        return len(self._shapes)

    def lookup(self, shape: Any, params: Sequence[Any]) -> Optional[CachedPlan]:
        """The variant of *shape* valid for *params*, most recently used
        first; counts one hit or one miss (and a replan when the shape was
        there but no variant fitted)."""
        variants = self._shapes.get(shape)
        if variants is not None:
            for entry in reversed(variants):
                if entry.matches(params):
                    if entry is not variants[-1]:
                        variants.remove(entry)
                        variants.append(entry)
                    self._shapes.move_to_end(shape)
                    self.stats.hits += 1
                    return entry
            self.stats.replans += 1
        self.stats.misses += 1
        return None

    def store(self, shape: Any, entry: CachedPlan) -> None:
        if self.size <= 0:
            return
        self._shapes.setdefault(shape, []).append(entry)
        self._shapes.move_to_end(shape)
        self._variants += 1
        while self._variants > self.size:
            oldest = next(iter(self._shapes))
            variants = self._shapes[oldest]
            variants.pop(0)
            self._variants -= 1
            if not variants:
                del self._shapes[oldest]

    def invalidate(self, reason: str) -> int:
        """Drop every variant; returns how many were dropped."""
        dropped = self._variants
        self._shapes.clear()
        self._variants = 0
        if dropped:
            self.stats.invalidations += dropped
            self.stats.last_invalidation = reason
        return dropped
