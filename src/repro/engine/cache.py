"""Inter-query caching: the plan cache.

One bounded LRU cache sits in front of the optimizer.
:class:`PlanCache` plans a statement *shape* once and binds its
literals on every later execution (System R's access module, re-run
with new host variables), for SELECTs and for the scan that locates an
UPDATE/DELETE's rows alike.

**Lifting.**  After parsing, :func:`lift_select` / :func:`lift_where`
walk the statement once.  Every ``int``/``float``/``str`` literal of
the WHERE clause and of the JOIN conditions becomes a parameter slot
(``Literal.slot``); the walk yields the *shape key* — the statement
with each lifted literal masked by its Python type — and the parameter
vector.  ``NULL``, booleans, ``LIMIT`` counts and LIKE patterns stay in
the key by value, and so does everything in the select list, GROUP BY,
HAVING and ORDER BY: the plan builder matches those clauses against
each other by expression equality and names output columns after their
text, so their literals are part of what the statement *is*.
Subqueries make a statement uncacheable (decomposition bakes their
results into the plan).

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
    AggCall,
    Arithmetic,
    Between,
    BoolKind,
    BoolOp,
    CmpOp,
    ColCmpConst,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    classify_conjunct,
    map_expr,
    referenced_columns,
)
from ..obs import plan_fingerprint
from ..optimizer import Estimator, EstimatorConfig, StatsResolver, index_bounds
from ..physical import (
    PhysicalPlan,
    PIndexNLJoin,
    PIndexOnlyScan,
    PIndexScan,
    PSeqScan,
)
from ..physical.bind import PlanTemplate, bind_expr, slots_of
from ..sql import JoinClause, SelectStmt


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


# -- literal lifting ----------------------------------------------------------


@dataclass
class Lifted:
    """One statement after lifting: its shape key, its parameter vector,
    and what a miss plans — the SELECT (or the WHERE of an UPDATE/DELETE)
    with the lifted literals slotted."""

    key: Tuple[Any, ...]
    params: List[Any]
    stmt: Any


class _Lifter:
    """The one walk: rebuilds expressions through ``map_expr`` and leaves
    one key token per node (post-order, each token fixing its node's kind
    and arity, so the token string determines the tree)."""

    def __init__(self, head: Sequence[Any]):
        self.key: List[Any] = list(head)
        self.params: List[Any] = []
        self.lifting = False
        self.cacheable = True

    def expr(self, expr: Optional[Expr], lifting: bool) -> Optional[Expr]:
        if expr is None:
            self.key.append(None)
            return None
        self.lifting = lifting
        return map_expr(expr, self._visit)

    def _visit(self, e: Expr) -> Expr:
        cls = type(e)
        key = self.key
        if cls is Literal:
            value = e.value
            kind = type(value)
            if self.lifting and (kind is int or kind is float or kind is str):
                key.append(kind)
                self.params.append(value)
                return Literal(value, len(self.params) - 1)
            key.append((Literal, repr(value)))
        elif cls is ColumnRef:
            key.append(e.name)
        elif cls is Comparison or cls is Arithmetic:
            key.append(e.op)
        elif cls is BoolOp:
            key.append((e.kind, len(e.operands)))
        elif cls is InList:
            key.append((InList, len(e.items), e.negated))
        elif cls is Between or cls is IsNull:
            key.append((cls, e.negated))
        elif cls is Like:
            key.append((Like, e.pattern, e.negated))
        elif cls is Not or cls is Negate:
            key.append(cls)
        elif cls is AggCall:
            key.append((e.func, e.distinct, e.arg is None))
        else:
            # a subquery — or a node kind this walk has not been taught
            self.cacheable = False
        return e

    def result(self, stmt: Any) -> Optional[Lifted]:
        if not self.cacheable:
            return None
        return Lifted(tuple(self.key), self.params, stmt)


def lift_select(stmt: SelectStmt) -> Optional[Lifted]:
    """Lift a SELECT; ``None`` when it holds a subquery (uncacheable)."""
    walk = _Lifter(("select", stmt.distinct, stmt.limit, len(stmt.items)))
    key = walk.key
    for item in stmt.items:
        key.append((item.alias, item.star_qualifier))
        walk.expr(item.expr, False)
    key.append(len(stmt.from_tables))
    for ref in stmt.from_tables:
        key.append((ref.table, ref.alias))
    key.append(len(stmt.joins))
    joins = []
    for join in stmt.joins:
        key.append((join.table.table, join.table.alias))
        joins.append(JoinClause(join.table, walk.expr(join.condition, True)))
    where = walk.expr(stmt.where, True)
    key.append(len(stmt.group_by))
    for expr in stmt.group_by:
        walk.expr(expr, False)
    walk.expr(stmt.having, False)
    key.append(len(stmt.order_by))
    for order in stmt.order_by:
        key.append(order.ascending)
        walk.expr(order.expr, False)
    return walk.result(
        SelectStmt(
            stmt.items,
            stmt.from_tables,
            joins,
            where,
            stmt.group_by,
            stmt.having,
            stmt.order_by,
            stmt.limit,
            stmt.distinct,
        )
    )


def lift_where(table: str, where: Optional[Expr]) -> Optional[Lifted]:
    """Lift the WHERE of an UPDATE/DELETE on *table*: the key of the scan
    that locates the statement's rows (both statement kinds share it)."""
    walk = _Lifter(("dml", table))
    return walk.result(walk.expr(where, True))


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
    table: TableInfo,
    binding: str,
    config: Optional[EstimatorConfig],
    feedback: Optional[Any] = None,
) -> Estimator:
    """An estimator over the one relation *table* AS *binding*: what the
    bucket guard re-estimates with, and what prices the scan that locates
    an UPDATE/DELETE's rows."""
    graph = JoinGraph(relations={binding: LogicalGet(table, binding)})
    return Estimator(StatsResolver(graph), config, feedback=feedback)


class _Guard:
    """Re-estimates one base relation of a cached plan under new values."""

    def __init__(
        self,
        table: TableInfo,
        binding: str,
        conjuncts: List[Expr],
        config: Optional[EstimatorConfig],
    ):
        self.table = table
        self.conjuncts = conjuncts
        self.estimator = relation_estimator(table, binding, config)

    def bucket(self, params: Sequence[Any]) -> int:
        rows = self.estimator.scan_rows(
            self.table, [bind_expr(c, params) for c in self.conjuncts]
        )
        return int(math.log2(max(1.0, rows)))


class CachedPlan:
    """One variant of a statement shape: the plan template, the parameter
    values it is pinned to, and the selectivity buckets it was planned in."""

    def __init__(
        self,
        plan: PhysicalPlan,
        params: Sequence[Any],
        config: Optional[EstimatorConfig],
    ):
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
                self.guards.append(
                    _Guard(table, node.binding, conjuncts, config)
                )
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

    A *shape* is ``(options_key, lifted key)``: the rendering of the
    active :class:`PlannerOptions` and the literal-masked statement.
    ``size`` bounds the variants over all shapes; ``size=0`` switches the
    cache off.
    """

    def __init__(self, size: int):
        self.size = max(0, size)
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
