"""Join graph extraction.

The optimizer does not enumerate plan trees directly; it works on the
query's *join graph*: the set of base relations, the single-table filter
conjuncts attached to each, and the join conjuncts connecting pairs of
relations.  This module extracts that graph from the join region of a
logical plan and substitutes an optimized join tree back into the
surrounding plan.

A **join region** is a maximal subtree of Filter/Join/Get nodes.  A typical
plan has exactly one (below Aggregate/Project/...); queries without joins
have a single-relation region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..expr import Expr, referenced_tables, split_conjuncts
from .logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalSort,
)


class JoinGraphError(Exception):
    """Raised when a subtree is not a well-formed join region."""


@dataclass
class JoinGraph:
    """Relations, per-relation filters, and join edges of one region.

    ``edges`` maps an unordered binding pair to its join conjuncts.
    ``hyper`` holds conjuncts spanning 3+ relations (rare; applied once all
    their relations are joined).  ``syntactic_order`` preserves the FROM
    order for the naive baseline planner.
    """

    relations: Dict[str, LogicalGet] = field(default_factory=dict)
    filters: Dict[str, List[Expr]] = field(default_factory=dict)
    edges: Dict[FrozenSet[str], List[Expr]] = field(default_factory=dict)
    hyper: List[Tuple[FrozenSet[str], Expr]] = field(default_factory=list)
    syntactic_order: List[str] = field(default_factory=list)

    def bindings(self) -> List[str]:
        return list(self.syntactic_order)

    def filter_conjuncts(self, binding: str) -> List[Expr]:
        return self.filters.get(binding, [])

    def join_conjuncts_between(
        self, left: Set[str], right: Set[str]
    ) -> List[Expr]:
        """All binary conjuncts connecting a relation set to another."""
        out: List[Expr] = []
        for pair, conjuncts in self.edges.items():
            a, b = tuple(pair)
            if (a in left and b in right) or (a in right and b in left):
                out.extend(conjuncts)
        return out

    def is_connected_subset(self, subset: Set[str]) -> bool:
        """True if *subset* induces a connected subgraph (no cross products
        needed to join it)."""
        if not subset:
            return False
        if len(subset) == 1:
            return True
        seen = {next(iter(subset))}
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for pair in self.edges:
                if current in pair:
                    (other,) = pair - {current}
                    if other in subset and other not in seen:
                        seen.add(other)
                        frontier.append(other)
        return seen == subset

    def has_cross_product(self) -> bool:
        return not self.is_connected_subset(set(self.relations))

    def order_equivalence(self) -> Dict[str, FrozenSet[str]]:
        """Equivalence classes of columns connected by equi-join conjuncts.

        After an inner equi-join on ``a.x = b.y``, output sorted on ``a.x``
        is equally sorted on ``b.y``; interesting-order reasoning above the
        region relies on these classes (classic System R order equivalence).
        Keys and members are qualified column names.
        """
        from ..expr import ColEqCol, classify_conjunct

        parent: Dict[str, str] = {}

        def find(x: str) -> str:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: str, b: str) -> None:
            parent[find(a)] = find(b)

        def qualify(name: str) -> Optional[str]:
            if "." in name:
                binding = name.split(".", 1)[0]
                if binding in self.relations:
                    return name
            for get in self.relations.values():
                if get.schema.has_column(name):
                    return get.schema.column(name).qualified_name
            return None

        for conjuncts in self.edges.values():
            for conjunct in conjuncts:
                classified = classify_conjunct(conjunct)
                if isinstance(classified, ColEqCol):
                    a = qualify(classified.left)
                    b = qualify(classified.right)
                    if a is not None and b is not None:
                        union(a, b)
        groups: Dict[str, Set[str]] = {}
        for name in list(parent):
            groups.setdefault(find(name), set()).add(name)
        out: Dict[str, FrozenSet[str]] = {}
        for members in groups.values():
            frozen = frozenset(members)
            for name in members:
                out[name] = frozen
        return out


# -- extraction ----------------------------------------------------------------------


_REGION_TYPES = (LogicalFilter, LogicalJoin, LogicalGet)


def is_join_region(plan: LogicalPlan) -> bool:
    """True if the whole subtree consists of Filter/Join/Get nodes."""
    if not isinstance(plan, _REGION_TYPES):
        return False
    return all(is_join_region(c) for c in plan.children())


def extract_join_graph(region: LogicalPlan) -> JoinGraph:
    """Build the join graph of a join region."""
    if not is_join_region(region):
        raise JoinGraphError(
            f"subtree rooted at {type(region).__name__} is not a join region"
        )
    graph = JoinGraph()
    conjuncts: List[Expr] = []
    _collect(region, graph, conjuncts)
    schema = region.schema
    for conjunct in conjuncts:
        tables = referenced_tables(conjunct, schema)
        if len(tables) == 0:
            # constant predicate: attach to the first relation
            first = graph.syntactic_order[0]
            graph.filters.setdefault(first, []).append(conjunct)
        elif len(tables) == 1:
            (binding,) = tables
            graph.filters.setdefault(binding, []).append(conjunct)
        elif len(tables) == 2:
            graph.edges.setdefault(frozenset(tables), []).append(conjunct)
        else:
            graph.hyper.append((frozenset(tables), conjunct))
    return graph


def _collect(plan: LogicalPlan, graph: JoinGraph, conjuncts: List[Expr]) -> None:
    if isinstance(plan, LogicalGet):
        if plan.binding in graph.relations:
            raise JoinGraphError(f"duplicate binding {plan.binding!r}")
        graph.relations[plan.binding] = plan
        graph.filters.setdefault(plan.binding, [])
        graph.syntactic_order.append(plan.binding)
        return
    if isinstance(plan, LogicalFilter):
        conjuncts.extend(split_conjuncts(plan.predicate))
        _collect(plan.child, graph, conjuncts)
        return
    if isinstance(plan, LogicalJoin):
        _collect(plan.left, graph, conjuncts)
        _collect(plan.right, graph, conjuncts)
        if plan.condition is not None:
            conjuncts.extend(split_conjuncts(plan.condition))
        return
    raise JoinGraphError(f"unexpected {type(plan).__name__} in join region")


# -- region substitution -----------------------------------------------------------------


def transform_join_regions(
    plan: LogicalPlan, fn: Callable[[LogicalPlan], LogicalPlan]
) -> LogicalPlan:
    """Apply *fn* to every maximal join region in *plan*, rebuilding the
    surrounding operators."""
    if is_join_region(plan):
        return fn(plan)
    if isinstance(plan, LogicalProject):
        return LogicalProject(
            transform_join_regions(plan.child, fn), plan.exprs, plan.names
        )
    if isinstance(plan, LogicalAggregate):
        return LogicalAggregate(
            transform_join_regions(plan.child, fn),
            plan.group_exprs,
            plan.group_names,
            plan.aggs,
        )
    if isinstance(plan, LogicalFilter):
        return LogicalFilter(
            transform_join_regions(plan.child, fn), plan.predicate
        )
    if isinstance(plan, LogicalSort):
        return LogicalSort(transform_join_regions(plan.child, fn), plan.keys)
    if isinstance(plan, LogicalLimit):
        return LogicalLimit(transform_join_regions(plan.child, fn), plan.count)
    if isinstance(plan, LogicalDistinct):
        return LogicalDistinct(transform_join_regions(plan.child, fn))
    if isinstance(plan, LogicalJoin):
        # A join whose subtree is not pure (should not happen from the
        # builder, but handle compositionally).
        return LogicalJoin(
            transform_join_regions(plan.left, fn),
            transform_join_regions(plan.right, fn),
            plan.condition,
        )
    if isinstance(plan, LogicalGet):
        return fn(plan)
    raise JoinGraphError(f"unhandled operator {type(plan).__name__}")
