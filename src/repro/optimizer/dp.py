"""System-R style dynamic-programming join enumeration.

The enumerator works bottom-up over connected subsets of the join graph,
keeping — per subset — the cheapest subplan *per interesting order* (the
classic refinement that lets a costlier-but-sorted subplan survive because
it saves a sort at a merge join or ORDER BY above).

Join methods considered when combining two subplans:

* block nested loop (always applicable),
* index nested loop (right side is a single base relation with an index on
  its join column),
* sort-merge (equi-joins; sorts inserted as needed, orders propagate),
* hash join (equi-joins; build side = right).

Modes: ``left_deep`` (the 1977-era search space) and bushy.  Cross products
are avoided unless the graph is disconnected (or ``allow_cross=True``).

Planning-effort counters (subsets and plans considered) feed experiment E5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..algebra import JoinGraph
from ..expr import (
    ColEqCol,
    ColumnRef,
    Expr,
    classify_conjunct,
    conjoin,
)
from ..obs import RegionSearch, feedback_key, scan_key
from ..physical import PHashJoin, PIndexNLJoin, PNestedLoopJoin, PSort, PSortMergeJoin, PhysicalPlan
from ..types import Schema
from .access import access_paths
from .cost import Cost, CostModel
from .estimate import Estimator, pages_for


@dataclass
class SubPlan:
    """A priced physical plan for a subset of relations."""

    plan: PhysicalPlan
    cost: Cost
    rows: float
    order: Optional[str]  # qualified column name the output is sorted on
    relations: FrozenSet[str]

    @property
    def schema(self) -> Schema:
        return self.plan.schema

    def pages(self, page_size: int = 4096) -> float:
        return pages_for(self.rows, self.schema.estimated_row_bytes(), page_size)


@dataclass
class PlannerStats:
    """Search-effort counters for the planning-time experiments."""

    subsets: int = 0
    plans_considered: int = 0
    plans_kept: int = 0


class DPPlanner:
    """Cost-based join-order enumeration over a join graph."""

    def __init__(
        self,
        graph: JoinGraph,
        estimator: Estimator,
        model: CostModel,
        left_deep: bool = True,
        use_interesting_orders: bool = True,
        allow_cross: bool = False,
        page_size: int = 4096,
        needed_columns: Optional[Dict[str, Set[str]]] = None,
        search: Optional[RegionSearch] = None,
    ):
        self.graph = graph
        self.estimator = estimator
        self.model = model
        self.left_deep = left_deep
        self.use_interesting_orders = use_interesting_orders
        self.allow_cross = allow_cross or graph.has_cross_product()
        self.page_size = page_size
        #: per-binding qualified columns required above the scan; enables
        #: index-only access paths when an index covers them.
        self.needed_columns = needed_columns or {}
        self.stats = PlannerStats()
        #: optional RegionSearch the enumeration is recorded into
        self.search = search
        self._rows_memo: Dict[FrozenSet[str], float] = {}
        self._key_memo: Dict[FrozenSet[str], str] = {}
        self._interesting = self._default_interesting_orders()

    # -- public entry -------------------------------------------------------------

    def plan(self) -> SubPlan:
        """Return the overall cheapest full plan (ignoring output order)."""
        table = self.plan_all_orders()
        return min(table.values(), key=lambda sp: sp.cost.total)

    def plan_all_orders(self) -> Dict[Optional[str], SubPlan]:
        """Best plan per interesting order for the full relation set."""
        bindings = list(self.graph.relations)
        n = len(bindings)
        best: Dict[FrozenSet[str], Dict[Optional[str], SubPlan]] = {}

        for binding in bindings:
            subset = frozenset([binding])
            best[subset] = self._base_plans(binding)
            self.stats.subsets += 1

        for size in range(2, n + 1):
            for combo in itertools.combinations(bindings, size):
                subset = frozenset(combo)
                if not self.allow_cross and not self.graph.is_connected_subset(
                    set(subset)
                ):
                    continue
                entry: Dict[Optional[str], SubPlan] = {}
                self.stats.subsets += 1
                for left_set, right_set in self._splits(subset):
                    left_plans = best.get(left_set)
                    right_plans = best.get(right_set)
                    if not left_plans or not right_plans:
                        continue
                    if not self.allow_cross and not self._connects(
                        left_set, right_set
                    ):
                        continue
                    for lp in left_plans.values():
                        for rp in right_plans.values():
                            for cand in self.join_candidates(lp, rp):
                                kept, reason = self._consider(entry, cand)
                                if self.search is not None:
                                    self.search.record(
                                        tuple(subset),
                                        cand.plan,
                                        cand.rows,
                                        cand.cost.total,
                                        cand.order,
                                        kept,
                                        reason,
                                    )
                if entry:
                    best[subset] = entry
        full = frozenset(bindings)
        if full not in best:
            raise RuntimeError(
                "no plan found — disconnected graph without allow_cross"
            )
        return best[full]

    # -- base relations ------------------------------------------------------------

    def _base_plans(self, binding: str) -> Dict[Optional[str], SubPlan]:
        get = self.graph.relations[binding]
        conjuncts = self.graph.filter_conjuncts(binding)
        cands = access_paths(
            get.table,
            binding,
            conjuncts,
            self.estimator,
            self.model,
            needed_columns=self.needed_columns.get(binding),
        )
        entry: Dict[Optional[str], SubPlan] = {}
        for cand in cands:
            sub = SubPlan(
                cand.plan,
                cand.cost,
                cand.rows,
                self._norm_order(cand.order),
                frozenset([binding]),
            )
            kept, reason = self._consider(entry, sub)
            if self.search is not None:
                self.search.record(
                    (binding,),
                    sub.plan,
                    sub.rows,
                    sub.cost.total,
                    sub.order,
                    kept,
                    reason,
                )
        return entry

    # -- join combination ---------------------------------------------------------------

    def join_candidates(self, left: SubPlan, right: SubPlan) -> List[SubPlan]:
        """All priced ways to join two subplans (left outer, right inner)."""
        conjuncts = self.graph.join_conjuncts_between(
            set(left.relations), set(right.relations)
        )
        combined = left.relations | right.relations
        hyper = self._hyper_conjuncts(combined, left.relations, right.relations)
        out_rows = self._subset_rows(combined)
        model = self.model
        results: List[SubPlan] = []
        left_pages = left.pages(self.page_size)
        right_pages = right.pages(self.page_size)
        all_conjuncts = conjuncts + hyper

        # -- block nested loop (always applicable)
        bnl = PNestedLoopJoin(
            left.plan,
            right.plan,
            conjoin(all_conjuncts),
            block_pages=max(1, model.work_mem_pages - 2),
        )
        bnl_cost = left.cost + model.block_nested_loop(
            left_pages, left.rows, right.cost, right.rows,
            inner_pages=right_pages,
        )
        bnl.est_rows, bnl.est_cost = out_rows, bnl_cost
        results.append(SubPlan(bnl, bnl_cost, out_rows, None, combined))

        # -- methods requiring an equi-join conjunct
        equis = self._split_equis(conjuncts, left.schema, right.schema)
        if equis:
            (lcol, rcol), rest = equis
            residual = conjoin(rest + hyper)
            lkey, rkey = ColumnRef(lcol), ColumnRef(rcol)

            # hash join (build = right)
            hj = PHashJoin(left.plan, right.plan, lkey, rkey, residual)
            hj_cost = (
                left.cost
                + right.cost
                + model.hash_join(
                    left_pages, left.rows, right_pages, right.rows, out_rows
                )
            )
            hj_order = (
                left.order if right_pages <= model.work_mem_pages else None
            )
            hj.est_rows, hj.est_cost = out_rows, hj_cost
            results.append(SubPlan(hj, hj_cost, out_rows, hj_order, combined))

            # sort-merge join
            lq = left.schema.column(lcol).qualified_name
            rq = right.schema.column(rcol).qualified_name
            lplan, lcost = self._sorted_input(left, lq, lkey, left_pages)
            rplan, rcost = self._sorted_input(right, rq, rkey, right_pages)
            smj = PSortMergeJoin(lplan, rplan, lkey, rkey, residual)
            smj_cost = (
                lcost + rcost + model.merge_join(left.rows, right.rows, out_rows)
            )
            smj.est_rows, smj.est_cost = out_rows, smj_cost
            results.append(
                SubPlan(smj, smj_cost, out_rows, self._norm_order(lq), combined)
            )

            # index nested loop (right must be a single indexed relation)
            inl = self._index_nl(left, right, lcol, rcol, rest + hyper, out_rows)
            if inl is not None:
                results.append(inl)

        fb_key = self._subset_key(combined)
        for sub in results:
            sub.plan.feedback_key = fb_key
        self.stats.plans_considered += len(results)
        return results

    def _sorted_input(
        self, side: SubPlan, qualified: str, key: ColumnRef, pages: float
    ) -> Tuple[PhysicalPlan, Cost]:
        if side.order == qualified:
            return side.plan, side.cost
        sort = PSort(side.plan, ((key, True),))
        cost = side.cost + self.model.sort(pages, side.rows)
        sort.est_rows, sort.est_cost = side.rows, cost
        return sort, cost

    def _index_nl(
        self,
        left: SubPlan,
        right: SubPlan,
        lcol: str,
        rcol: str,
        residual: List[Expr],
        out_rows: float,
    ) -> Optional[SubPlan]:
        if len(right.relations) != 1:
            return None
        (binding,) = right.relations
        get = self.graph.relations[binding]
        bare = rcol.split(".")[-1]
        index = get.table.index_on(bare)
        if index is None:
            return None
        # composite indexes are probed on their leading component, which
        # must be the join column (index_on already keys by leading column)
        filters = self.graph.filter_conjuncts(binding)
        residual_all = residual + filters
        matches = self.estimator.matches_per_probe(
            rcol, float(get.table.num_rows)
        )
        plan = PIndexNLJoin(
            left.plan,
            get.table,
            binding,
            index,
            ColumnRef(lcol),
            conjoin(residual_all),
        )
        cost = left.cost + self.model.index_nested_loop(
            left.rows,
            index,
            get.table.num_pages,
            float(get.table.num_rows),
            matches,
        )
        if residual_all:
            probe_out = left.rows * matches
            cost = cost + self.model.filter(probe_out, len(residual_all))
        combined = left.relations | right.relations
        plan.est_rows, plan.est_cost = out_rows, cost
        return SubPlan(plan, cost, out_rows, left.order, combined)

    # -- pruning ----------------------------------------------------------------------

    def _consider(
        self, entry: Dict[Optional[str], SubPlan], cand: SubPlan
    ) -> Tuple[bool, str]:
        """Keep the cheapest subplan per interesting order.  Returns the
        decision + a human-readable reason for the search trace."""
        order = cand.order if self.use_interesting_orders else None
        if not self.use_interesting_orders and cand.order is not None:
            cand = SubPlan(
                cand.plan, cand.cost, cand.rows, None, cand.relations
            )
        slot = f"order {order}" if order is not None else "unordered"
        existing = entry.get(order)
        if existing is None:
            entry[order] = cand
            self.stats.plans_kept += 1
            return True, f"first plan for {slot}"
        if cand.cost.total < existing.cost.total:
            entry[order] = cand
            self.stats.plans_kept += 1
            return True, (
                f"beats incumbent for {slot} "
                f"({cand.cost.total:.1f} < {existing.cost.total:.1f})"
            )
        return False, (
            f"dominated for {slot} "
            f"({cand.cost.total:.1f} >= {existing.cost.total:.1f})"
        )

    def _norm_order(self, order: Optional[str]) -> Optional[str]:
        if order is None or not self.use_interesting_orders:
            return None
        return order if order in (self._interesting or ()) else None

    # -- graph helpers -----------------------------------------------------------------------

    def _splits(self, subset: FrozenSet[str]):
        """(left, right) partitions of *subset*.  Left-deep: right side is a
        single relation; bushy: all 2-partitions (right smaller or equal,
        dedup by canonical form)."""
        items = sorted(subset)
        if self.left_deep:
            for r in items:
                yield subset - {r}, frozenset([r])
            return
        n = len(items)
        for mask in range(1, 2 ** n - 1):
            right = frozenset(
                items[i] for i in range(n) if mask & (1 << i)
            )
            left = subset - right
            if len(left) >= 1 and len(right) >= 1:
                yield left, right

    def _connects(self, left: FrozenSet[str], right: FrozenSet[str]) -> bool:
        if self.graph.join_conjuncts_between(set(left), set(right)):
            return True
        combined = left | right
        for tables, _ in self.graph.hyper:
            if tables <= combined and tables & left and tables & right:
                return True
        return False

    def _hyper_conjuncts(
        self,
        combined: FrozenSet[str],
        left: FrozenSet[str],
        right: FrozenSet[str],
    ) -> List[Expr]:
        out = []
        for tables, conjunct in self.graph.hyper:
            if tables <= combined and not tables <= left and not tables <= right:
                out.append(conjunct)
        return out

    def _split_equis(
        self, conjuncts: Sequence[Expr], left_schema: Schema, right_schema: Schema
    ) -> Optional[Tuple[Tuple[str, str], List[Expr]]]:
        """Find an equi-join conjunct usable as the join key, returning
        ``((left_col, right_col), other_conjuncts)`` or None."""
        key: Optional[Tuple[str, str]] = None
        rest: List[Expr] = []
        for conjunct in conjuncts:
            classified = classify_conjunct(conjunct)
            if key is None and isinstance(classified, ColEqCol):
                a, b = classified.left, classified.right
                if left_schema.has_column(a) and right_schema.has_column(b):
                    key = (a, b)
                    continue
                if left_schema.has_column(b) and right_schema.has_column(a):
                    key = (b, a)
                    continue
            rest.append(conjunct)
        if key is None:
            return None
        return key, rest

    # -- cardinalities ----------------------------------------------------------------------------

    def _subset_rows(self, subset: FrozenSet[str]) -> float:
        """Estimated rows of the join of *subset* — a property of the set,
        not of any particular plan shape (keeps DP consistent).

        With a feedback store attached: a direct observation for this
        exact subset overrides everything (learned factor × the *raw*
        model estimate, since that is what the factor was learned
        against); otherwise per-scan corrections propagate upward through
        the usual selectivity product.
        """
        memo = self._rows_memo.get(subset)
        if memo is not None:
            return memo
        raw = 1.0
        corrected = 1.0
        for binding in sorted(subset):  # fixed order of the float products
            get = self.graph.relations[binding]
            scan = max(
                1.0,
                self.estimator.scan_rows(
                    get.table, self.graph.filter_conjuncts(binding)
                ),
            )
            raw *= scan
            corrected *= max(
                1.0,
                self.estimator.feedback_rows(
                    self._scan_feedback_key(binding), scan
                ),
            )
        sel = 1.0
        for pair, conjuncts in self.graph.edges.items():
            if pair <= subset:
                sel *= self.estimator.join_selectivity(conjuncts)
        for tables, conjunct in self.graph.hyper:
            if tables <= subset:
                sel *= self.estimator.selectivity(conjunct)
        rows = max(1.0, corrected * sel)
        direct = self.estimator.apply_feedback(
            self._subset_key(subset), max(1.0, raw * sel)
        )
        if direct is not None:
            rows = direct
        self._rows_memo[subset] = rows
        return rows

    # -- feedback keys --------------------------------------------------------------

    def _scan_feedback_key(self, binding: str) -> str:
        get = self.graph.relations[binding]
        return scan_key(
            get.table.name, binding, self.graph.filter_conjuncts(binding)
        )

    def _subset_key(self, subset: FrozenSet[str]) -> str:
        """Feedback key of the join of *subset*: its relations plus every
        filter/join/hyper conjunct fully contained in it — the same key
        regardless of which plan shape produced the rows."""
        memo = self._key_memo.get(subset)
        if memo is not None:
            return memo
        tables = []
        conjuncts: List[Expr] = []
        for binding in sorted(subset):
            get = self.graph.relations[binding]
            tables.append(f"{get.table.name} AS {binding}")
            conjuncts.extend(self.graph.filter_conjuncts(binding))
        for pair, edge_conjuncts in self.graph.edges.items():
            if pair <= subset:
                conjuncts.extend(edge_conjuncts)
        for hyper_tables, conjunct in self.graph.hyper:
            if hyper_tables <= subset:
                conjuncts.append(conjunct)
        key = feedback_key(tables, conjuncts)
        self._key_memo[subset] = key
        return key

    # -- interesting orders ----------------------------------------------------------------------

    def _default_interesting_orders(self) -> Set[str]:
        """Columns appearing in equi-join conjuncts (qualified)."""
        out: Set[str] = set()
        for pair, conjuncts in self.graph.edges.items():
            for conjunct in conjuncts:
                classified = classify_conjunct(conjunct)
                if isinstance(classified, ColEqCol):
                    for name in (classified.left, classified.right):
                        out.add(self._qualify(name))
        return out

    def _qualify(self, name: str) -> str:
        if "." in name:
            return name
        for binding, get in self.graph.relations.items():
            if get.schema.has_column(name):
                return get.schema.column(name).qualified_name
        return name

    def add_interesting_order(self, qualified: str) -> None:
        if self._interesting is None:
            self._interesting = set()
        self._interesting.add(qualified)


def count_dp_subsets(n: int, shape: str = "chain") -> int:
    """Analytic count of connected subsets for reference in E5."""
    if shape == "chain":
        return n * (n + 1) // 2
    if shape == "star":
        # hub + any subset of spokes, plus singletons
        return (2 ** (n - 1)) + n - 1
    if shape == "clique":
        return 2 ** n - 1
    raise ValueError(f"unknown shape {shape!r}")
