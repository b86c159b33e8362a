"""The end-to-end planner: logical plan -> optimized physical plan.

Pipeline::

    logical plan
      → predicate pushdown                     (rewrite, optional)
      → per join region: join-graph extraction
           → strategy planner (DP / baseline)  → priced physical subtree
      → conversion of the remaining operators (aggregate, sort, project …)
        with order propagation: sorts are skipped when the region already
        delivers the order, streaming aggregation is used on sorted input.

Order propagation uses **equivalence classes**: after an equi-join on
``a.x = b.y`` a plan sorted on ``a.x`` also satisfies ``ORDER BY b.y`` —
the classic System-R refinement that makes interesting orders pay off
above the join region (experiment E7).

``strategy`` selects the join-order algorithm: ``dp`` (System R left-deep,
the default), ``dp-bushy``, ``syntactic``, ``naive``, ``greedy``,
``exhaustive``, ``random``.  The two DP strategies are implemented here
(:mod:`.dp`); the five others are the evaluation's baselines
(:mod:`.baselines`), which this module imports only when a region is
planned under one of their names — the serving engine plans with ``dp``
and never loads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..algebra import (
    JoinGraph,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalSort,
    extract_join_graph,
    is_join_region,
    push_down_predicates,
)
from ..catalog import Catalog
from ..expr import ColumnRef, Expr, conjoin, infer_expr_type
from ..obs import SearchTrace, trace_span
from ..physical import (
    PAggregate,
    PDistinct,
    PFilter,
    PLimit,
    PProject,
    PSort,
    PhysicalPlan,
)
from .cost import Cost, CostModel
from .dp import DPPlanner, PlannerStats, SubPlan
from .estimate import Estimator, StatsResolver, pages_for

STRATEGIES = (
    "dp",
    "dp-bushy",
    "syntactic",
    "naive",
    "greedy",
    "exhaustive",
    "random",
)

_EMPTY: FrozenSet[str] = frozenset()


def _resolve_to_base_column(node: LogicalPlan, name: str) -> Optional[str]:
    """Trace a column name down through projections/aggregates to the
    qualified base-table column it passes through, or None if it is
    computed.  This is how ``ORDER BY alias`` learns which base column's
    order would satisfy it."""
    current = node
    while True:
        if isinstance(current, LogicalProject):
            if name not in current.names:
                return None
            expr = current.exprs[current.names.index(name)]
            if not isinstance(expr, ColumnRef):
                return None
            try:
                name = current.child.schema.column(expr.name).qualified_name
            except Exception:
                return None
            current = current.child
            continue
        if isinstance(current, LogicalAggregate):
            if name not in current.group_names:
                return None
            g = current.group_exprs[current.group_names.index(name)]
            if not isinstance(g, ColumnRef):
                return None
            try:
                name = current.child.schema.column(g.name).qualified_name
            except Exception:
                return None
            current = current.child
            continue
        if isinstance(
            current,
            (LogicalFilter, LogicalDistinct, LogicalLimit, LogicalSort),
        ):
            current = current.children()[0]
            continue
        try:
            return current.schema.column(name).qualified_name
        except Exception:
            return None


def _qualified_refs(expr: Expr, schema, strict: bool = True) -> Set[str]:
    """Column references of *expr* resolved to qualified names in *schema*.

    With ``strict=False``, references that do not resolve in *schema* are
    skipped (used when projecting a multi-table conjunct onto one side).
    """
    from ..expr import referenced_columns

    out: Set[str] = set()
    for name in referenced_columns(expr):
        try:
            out.add(schema.column(name).qualified_name)
        except Exception:
            if strict:
                raise
    return out


@dataclass
class PlannerOptions:
    strategy: str = "dp"
    pushdown: bool = True
    use_interesting_orders: bool = True
    random_seed: int = 0
    #: apply learned est-vs-actual corrections from the Database's
    #: FeedbackStore during estimation (LEO-style; plans may change,
    #: results never do)
    use_feedback: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; pick from {STRATEGIES}"
            )


@dataclass
class _Converted:
    """A physical subtree plus the names its output is known sorted on.

    ``order`` holds every column name (in the subtree's output schema)
    equivalent to the *primary* sort key — empty when unordered.
    ``order_seq`` is the full known sort-column sequence (current-schema
    names) when the producer sorts on several columns, e.g. a composite
    index scan; used to satisfy multi-key ORDER BY without a sort.
    """

    plan: PhysicalPlan
    rows: float
    cost: Cost
    order: FrozenSet[str] = _EMPTY
    order_seq: Tuple[str, ...] = ()


@dataclass
class _Desired:
    """Orders the upper plan could exploit, split by how much they're worth:
    a Sort above is worth a full sort; a grouped aggregate is only worth the
    (cheap) difference between hash and stream aggregation."""

    sort_keys: Set[str] = field(default_factory=set)
    group_keys: Set[str] = field(default_factory=set)

    @property
    def all(self) -> Set[str]:
        return self.sort_keys | self.group_keys


class Planner:
    """Plans logical trees against a catalog with a given cost model."""

    def __init__(
        self,
        catalog: Catalog,
        model: Optional[CostModel] = None,
        options: Optional[PlannerOptions] = None,
        feedback: Optional[object] = None,
        search: Optional[SearchTrace] = None,
    ):
        self.catalog = catalog
        self.model = model or CostModel()
        self.options = options or PlannerOptions()
        self.page_size = catalog.pool.disk.page_size
        self.last_stats: Optional[PlannerStats] = None
        #: FeedbackStore consulted when ``options.use_feedback`` is on
        self.feedback = feedback
        #: SearchTrace that region enumerations are recorded into
        self.search = search

    # -- entry points ---------------------------------------------------------------

    def plan_logical(self, plan: LogicalPlan) -> PhysicalPlan:
        if self.options.pushdown:
            with trace_span("rewrite"):
                plan = push_down_predicates(plan)
        desired = self._desired_orders(plan)
        self._needed_map: Dict[int, Optional[Set[str]]] = {}
        self._collect_needed(plan, None)
        with trace_span("costing"):
            converted = self._convert(plan, desired)
        return converted.plan

    # -- needed-columns pre-pass ---------------------------------------------------------

    def _collect_needed(
        self, plan: LogicalPlan, needed: Optional[Set[str]]
    ) -> None:
        """Record, for every join-region root, the qualified columns the
        plan above it references (``None`` = everything, e.g. SELECT *).
        Enables covering (index-only) access paths."""
        if is_join_region(plan):
            self._needed_map[id(plan)] = needed
            return
        if isinstance(plan, LogicalProject):
            refs: Set[str] = set()
            for expr in plan.exprs:
                refs |= _qualified_refs(expr, plan.child.schema)
            self._collect_needed(plan.child, refs)
            return
        if isinstance(plan, LogicalAggregate):
            refs = set()
            for expr in plan.group_exprs:
                refs |= _qualified_refs(expr, plan.child.schema)
            for agg in plan.aggs:
                if agg.arg is not None:
                    refs |= _qualified_refs(agg.arg, plan.child.schema)
            self._collect_needed(plan.child, refs)
            return
        if isinstance(plan, LogicalFilter):
            if needed is None:
                self._collect_needed(plan.child, None)
                return
            refs = set(needed) | _qualified_refs(
                plan.predicate, plan.child.schema
            )
            self._collect_needed(plan.child, refs)
            return
        if isinstance(plan, LogicalSort):
            if needed is None:
                self._collect_needed(plan.child, None)
                return
            refs = set(needed)
            for expr, _ in plan.keys:
                refs |= _qualified_refs(expr, plan.child.schema)
            self._collect_needed(plan.child, refs)
            return
        for child in plan.children():
            self._collect_needed(child, needed)

    # -- desired-order pre-pass --------------------------------------------------------

    def _desired_orders(self, plan: LogicalPlan) -> _Desired:
        desired = _Desired()

        def visit(node: LogicalPlan) -> None:
            if isinstance(node, LogicalSort) and node.keys:
                expr, asc = node.keys[0]
                if asc and isinstance(expr, ColumnRef):
                    resolved = _resolve_to_base_column(node.child, expr.name)
                    if resolved is not None:
                        desired.sort_keys.add(resolved)
            if isinstance(node, LogicalAggregate) and len(node.group_exprs) == 1:
                g = node.group_exprs[0]
                if isinstance(g, ColumnRef):
                    resolved = _resolve_to_base_column(node.child, g.name)
                    if resolved is not None:
                        desired.group_keys.add(resolved)
            for child in node.children():
                visit(child)

        visit(plan)
        return desired

    # -- conversion -------------------------------------------------------------------

    def _convert(self, plan: LogicalPlan, desired: _Desired) -> _Converted:
        if is_join_region(plan):
            return self._plan_region(plan, desired)

        if isinstance(plan, LogicalFilter):
            child = self._convert(plan.child, desired)
            node = PFilter(child.plan, plan.predicate)
            rows = child.rows * 0.5  # post-aggregation filters: coarse guess
            cost = child.cost + self.model.filter(child.rows)
            return self._annotate(
                node, rows, cost, child.order, child.order_seq
            )

        if isinstance(plan, LogicalProject):
            child = self._convert(plan.child, desired)
            dtypes = tuple(
                infer_expr_type(e, child.plan.schema) for e in plan.exprs
            )
            node = PProject(child.plan, plan.exprs, plan.names, dtypes)
            order = self._project_order(child, plan.exprs, plan.names)
            order_seq = self._map_seq_through_project(
                child, plan.exprs, plan.names
            )
            cost = child.cost + self.model.project(child.rows)
            return self._annotate(node, child.rows, cost, order, order_seq)

        if isinstance(plan, LogicalAggregate):
            return self._convert_aggregate(plan, desired)

        if isinstance(plan, LogicalSort):
            child = self._convert(plan.child, desired)
            if self._order_satisfies(child, plan.keys):
                return child
            pages = pages_for(
                child.rows, child.plan.schema.estimated_row_bytes(), self.page_size
            )
            node = PSort(child.plan, plan.keys)
            cost = child.cost + self.model.sort(pages, child.rows)
            order = self._sort_order(plan.keys, node.schema)
            seq = []
            for expr, asc in plan.keys:
                if not asc or not isinstance(expr, ColumnRef):
                    break
                if not node.schema.has_column(expr.name):
                    break
                seq.append(node.schema.column(expr.name).qualified_name)
            return self._annotate(node, child.rows, cost, order, tuple(seq))

        if isinstance(plan, LogicalDistinct):
            child = self._convert(plan.child, desired)
            node = PDistinct(child.plan)
            rows = max(1.0, child.rows * 0.9)
            cost = child.cost + self.model.distinct(child.rows)
            return self._annotate(
                node, rows, cost, child.order, child.order_seq
            )

        if isinstance(plan, LogicalLimit):
            child = self._convert(plan.child, desired)
            node = PLimit(child.plan, plan.count)
            rows = min(child.rows, float(plan.count))
            return self._annotate(
                node, rows, child.cost, child.order, child.order_seq
            )

        if isinstance(plan, (LogicalJoin, LogicalGet)):
            # A join/get whose subtree was not a pure region (shouldn't
            # happen from the builder) — treat as its own region.
            return self._plan_region(plan, desired)

        raise TypeError(f"cannot convert {type(plan).__name__}")

    def _annotate(
        self,
        node: PhysicalPlan,
        rows: float,
        cost: Cost,
        order: FrozenSet[str],
        order_seq: Tuple[str, ...] = (),
    ) -> _Converted:
        node.est_rows, node.est_cost = rows, cost
        return _Converted(node, rows, cost, order, order_seq)

    # -- region planning ----------------------------------------------------------------

    def _plan_region(self, region: LogicalPlan, desired: _Desired) -> _Converted:
        graph = extract_join_graph(region)
        post_filters: List[Expr] = []
        if not self.options.pushdown:
            # Ablation mode (E9): single-table predicates stay ABOVE the
            # join, as a pre-pushdown system would evaluate them.
            for binding in graph.bindings():
                post_filters.extend(graph.filters.get(binding, []))
                graph.filters[binding] = []
        resolver = StatsResolver(graph)
        estimator = Estimator(
            resolver,
            feedback=self.feedback if self.options.use_feedback else None,
        )
        equivalence = graph.order_equivalence()
        if not hasattr(self, "_binding_tables"):
            self._binding_tables = {}
        for binding, get in graph.relations.items():
            self._binding_tables[binding] = get.table
        strategy = self.options.strategy
        region_search = (
            self.search.new_region(strategy, graph.relations)
            if self.search is not None
            else None
        )

        with trace_span("join_enumeration") as span:
            if strategy in ("dp", "dp-bushy"):
                planner = DPPlanner(
                    graph,
                    estimator,
                    self.model,
                    left_deep=strategy == "dp",
                    use_interesting_orders=self.options.use_interesting_orders,
                    page_size=self.page_size,
                    needed_columns=self._needed_per_binding(region, graph),
                    search=region_search,
                )
                wanted = self._wanted_in_region(desired.all, graph, equivalence)
                for name in wanted:
                    planner.add_interesting_order(name)
                table = planner.plan_all_orders()
                sort_wanted = self._wanted_in_region(
                    desired.sort_keys, graph, equivalence
                )
                group_wanted = self._wanted_in_region(
                    desired.group_keys, graph, equivalence
                )
                sub = self._choose_with_orders(table, sort_wanted, group_wanted)
                self.last_stats = planner.stats
            else:
                # The baselines are the evaluation's foils (E4/E5), not a
                # plan a served statement gets: imported on first use, so
                # the serving engine's import closure stays without them.
                from .baselines import baseline_planner

                baseline = baseline_planner(
                    strategy, graph, estimator, self.model, self.options.random_seed
                )
                sub = baseline.plan()
                self.last_stats = baseline.stats
                if region_search is not None:
                    # Baseline strategies don't enumerate alternatives;
                    # record the single plan they commit to.
                    region_search.record(
                        tuple(sorted(sub.relations)),
                        sub.plan,
                        sub.rows,
                        sub.cost.total,
                        sub.order,
                        True,
                        f"chosen by {strategy} strategy",
                    )
            if region_search is not None:
                region_search.mark_chosen(sub.plan, sub.cost.total)
            span.add("relations", len(graph.relations))
            stats = self.last_stats
            if stats is not None:
                span.add("subsets", stats.subsets)
                span.add("plans_considered", stats.plans_considered)
                span.add("plans_kept", stats.plans_kept)

        order = self._region_order(sub, equivalence)
        order_seq = self._region_order_seq(sub)
        converted = _Converted(sub.plan, sub.rows, sub.cost, order, order_seq)
        if post_filters:
            node = PFilter(converted.plan, conjoin(post_filters))
            sel = estimator.scan_selectivity(post_filters)
            rows = max(1.0, converted.rows * sel)
            cost = converted.cost + self.model.filter(
                converted.rows, len(post_filters)
            )
            node.est_rows, node.est_cost = rows, cost
            return _Converted(node, rows, cost, order, order_seq)
        return converted

    def _needed_per_binding(
        self, region: LogicalPlan, graph: JoinGraph
    ) -> Dict[str, Set[str]]:
        """Per-binding qualified columns required above each scan: what the
        upper plan references plus this binding's join-conjunct columns."""
        needed_above = getattr(self, "_needed_map", {}).get(id(region))
        if needed_above is None:
            return {}
        out: Dict[str, Set[str]] = {}
        for binding, get in graph.relations.items():
            columns = {
                name
                for name in needed_above
                if get.schema.has_column(name)
            }
            for pair, conjuncts in graph.edges.items():
                if binding not in pair:
                    continue
                for conjunct in conjuncts:
                    columns |= {
                        name
                        for name in _qualified_refs(conjunct, get.schema, strict=False)
                    }
            for tables, conjunct in graph.hyper:
                if binding in tables:
                    columns |= _qualified_refs(conjunct, get.schema, strict=False)
            out[binding] = columns
        return out

    def _region_order(
        self, sub: SubPlan, equivalence: Dict[str, FrozenSet[str]]
    ) -> FrozenSet[str]:
        """Expand a subplan's order column to its equivalence class, keeping
        only names the region schema can resolve."""
        if sub.order is None:
            return _EMPTY
        names = equivalence.get(sub.order, frozenset([sub.order]))
        schema = sub.plan.schema
        return frozenset(n for n in names if schema.has_column(n)) | {
            sub.order
        }

    def _region_order_seq(self, sub: SubPlan) -> Tuple[str, ...]:
        """Multi-column sort sequence when the region plan is a composite
        B+-tree scan (its output is ordered by the full key)."""
        from ..physical import PIndexScan

        plan = sub.plan
        if isinstance(plan, PIndexScan):
            return tuple(
                f"{plan.binding}.{column}" for column in plan.index.columns
            )
        return (sub.order,) if sub.order is not None else ()

    def _choose_with_orders(
        self,
        table: Dict[Optional[str], SubPlan],
        sort_wanted: Set[str],
        group_wanted: Set[str],
    ) -> SubPlan:
        """Pick between the cheapest plan and an order-providing plan whose
        extra cost is covered by the sort (or aggregation) it saves above."""
        best = min(table.values(), key=lambda sp: sp.cost.total)
        chosen = best
        for order, sub in table.items():
            if order is None or sub is best:
                continue
            if order in sort_wanted:
                # The saved sort usually runs above a projection, on rows
                # narrower than the region's output — budget conservatively
                # with a minimal row width so a pricier ordered plan is only
                # chosen when it beats even a cheap final sort.
                pages = pages_for(best.rows, 16, self.page_size)
                budget = self.model.sort(pages, best.rows).total
            elif order in group_wanted:
                # stream vs hash aggregation: small CPU-side benefit only
                budget = self.model.aggregate(best.rows, best.rows).total * 0.1
            else:
                continue
            if (
                sub.cost.total <= best.cost.total + budget
                and sub.cost.total < chosen.cost.total + budget
            ):
                chosen = sub
        return chosen

    def _wanted_in_region(
        self,
        names: Set[str],
        graph: JoinGraph,
        equivalence: Dict[str, FrozenSet[str]],
    ) -> Set[str]:
        """Resolve desired order columns into the region (qualified), then
        expand through join-key equivalence."""
        out: Set[str] = set()
        for name in names:
            qualified = self._qualify_in_region(name, graph)
            if qualified is None:
                continue
            out |= equivalence.get(qualified, frozenset([qualified]))
        return out

    def _qualify_in_region(
        self, name: str, graph: JoinGraph
    ) -> Optional[str]:
        for binding, get in graph.relations.items():
            if get.schema.has_column(name):
                return get.schema.column(name).qualified_name
        return None

    # -- aggregate conversion ----------------------------------------------------------------

    def _convert_aggregate(
        self, plan: LogicalAggregate, desired: _Desired
    ) -> _Converted:
        child = self._convert(plan.child, desired)
        streaming = False
        if len(plan.group_exprs) == 1 and isinstance(
            plan.group_exprs[0], ColumnRef
        ):
            if self._name_in_order(
                child, plan.group_exprs[0].name
            ):
                streaming = True
        groups = self._estimate_groups(
            child.rows, plan.group_exprs, child.plan.schema
        )
        cost = child.cost + self.model.aggregate(child.rows, groups)
        node = PAggregate(
            child.plan,
            plan.group_exprs,
            plan.group_names,
            plan.aggs,
            plan.schema,
            streaming=streaming,
        )
        order = (
            frozenset([plan.group_names[0]]) if streaming else _EMPTY
        )
        return self._annotate(node, groups, cost, order)

    def _estimate_groups(self, rows: float, group_exprs, schema) -> float:
        """Group count: product of the group columns' distinct counts when
        statistics know them, capped by the input rows; the coarse
        ``rows^0.75`` rule otherwise."""
        if not group_exprs:
            return 1.0
        product = 1.0
        known = True
        for expr in group_exprs:
            distinct = self._distinct_of(expr, schema)
            if distinct is None:
                known = False
                break
            product *= max(1, distinct)
        if known:
            return max(1.0, min(rows, product))
        return max(1.0, min(rows, rows ** 0.75))

    def _distinct_of(self, expr, schema) -> Optional[int]:
        if not isinstance(expr, ColumnRef):
            return None
        try:
            column = schema.column(expr.name)
        except Exception:
            return None
        binding = column.table
        tables = getattr(self, "_binding_tables", {})
        info = tables.get(binding)
        if info is None:
            return None
        stats = info.column_stats(column.name)
        if stats is None or not stats.num_distinct:
            return None
        return stats.num_distinct + (1 if stats.null_count else 0)

    # -- order helpers ------------------------------------------------------------------------

    def _name_in_order(self, child: _Converted, name: str) -> bool:
        """Does *name* (resolved in the child's schema) match the child's
        known sort order (via equivalence set)?"""
        if not child.order:
            return False
        schema = child.plan.schema
        try:
            qualified = schema.column(name).qualified_name
        except Exception:
            return False
        return qualified in child.order or name in child.order

    def _order_satisfies(self, child: _Converted, keys) -> bool:
        resolved = []
        for expr, asc in keys:
            if not asc or not isinstance(expr, ColumnRef):
                return False
            resolved.append(expr.name)
        if len(resolved) == 1:
            return self._name_in_order(child, resolved[0])
        # multi-key: the sort keys must form a prefix of a known sort
        # sequence (e.g. a composite index's key columns)
        seq = child.order_seq
        if len(seq) < len(resolved):
            return False
        schema = child.plan.schema
        for want, have in zip(resolved, seq):
            try:
                qualified = schema.column(want).qualified_name
            except Exception:
                return False
            if qualified != have and want != have:
                # first key may also match through join equivalence
                if want == resolved[0] and have in child.order:
                    continue
                return False
        return True

    def _map_seq_through_project(
        self, child: _Converted, exprs, names
    ) -> Tuple[str, ...]:
        """A sort sequence survives projection while its columns pass
        through (prefix semantics)."""
        out = []
        mapping = {}
        schema = child.plan.schema
        for expr, name in zip(exprs, names):
            if isinstance(expr, ColumnRef) and schema.has_column(expr.name):
                mapping[schema.column(expr.name).qualified_name] = name
        for source in child.order_seq:
            if source in mapping:
                out.append(mapping[source])
            else:
                break
        return tuple(out)

    def _sort_order(self, keys, schema) -> FrozenSet[str]:
        expr, asc = keys[0]
        if asc and isinstance(expr, ColumnRef) and schema.has_column(expr.name):
            return frozenset([schema.column(expr.name).qualified_name, expr.name])
        return _EMPTY

    def _project_order(
        self, child: _Converted, exprs, names
    ) -> FrozenSet[str]:
        """Order survives projection through pass-through columns, under
        their output names."""
        if not child.order:
            return _EMPTY
        out = set()
        for expr, name in zip(exprs, names):
            if isinstance(expr, ColumnRef) and self._name_in_order(
                child, expr.name
            ):
                out.add(name)
        return frozenset(out)
