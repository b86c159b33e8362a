"""Baseline join-order planners.

The foils the evaluation compares the DP optimizer against (E4, E5):

* :class:`SyntacticPlanner` — joins in FROM-clause order (left-deep),
  choosing the locally cheapest join method at each step.  Represents a
  pre-cost-based system that trusts the query author.
* :class:`NaiveNLPlanner` — FROM order, sequential scans, tuple nested
  loops only.  The no-optimizer strawman.
* :class:`GreedyPlanner` — classic greedy heuristic: start from the
  smallest (estimated) relation, repeatedly join the neighbour producing
  the smallest intermediate result.
* :class:`ExhaustivePlanner` — enumerate every left-deep permutation
  (O(n!)); optimal within left-deep space, used to show DP matches it at a
  fraction of the effort.
* :class:`RandomPlanner` — a seeded random connected order; the expected
  badness of an arbitrary plan.

All baselines share access-path and join-method pricing with the DP
planner, so differences measure *join order* quality alone.  They are
the laboratory, not the engine: :class:`~.planner.Planner` reaches this
module only when a region is planned under one of the :data:`BASELINES`
names, so a server planning with ``dp`` never imports it.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Sequence

from ..algebra import JoinGraph
from ..expr import conjoin
from ..physical import PNestedLoopJoin, PSeqScan
from .cost import CostModel
from .dp import DPPlanner, PlannerStats, SubPlan
from .estimate import Estimator


class OrderPlanner:
    """Shared machinery: price a given left-deep join order."""

    def __init__(
        self,
        graph: JoinGraph,
        estimator: Estimator,
        model: CostModel,
    ):
        self.graph = graph
        self.estimator = estimator
        self.model = model
        # Reuse the DP planner's access-path and join pricing; interesting
        # orders off so each step keeps a single best plan.
        self._dp = DPPlanner(
            graph,
            estimator,
            model,
            left_deep=True,
            use_interesting_orders=False,
            allow_cross=True,
        )
        self.stats = PlannerStats()

    def base_plan(self, binding: str) -> SubPlan:
        plans = self._dp._base_plans(binding)
        self.stats.plans_considered += len(plans)
        return min(plans.values(), key=lambda sp: sp.cost.total)

    def extend(self, left: SubPlan, binding: str) -> SubPlan:
        right = self.base_plan(binding)
        candidates = self._dp.join_candidates(left, right)
        self.stats.plans_considered += len(candidates)
        return min(candidates, key=lambda sp: sp.cost.total)

    def plan_order(self, order: Sequence[str]) -> SubPlan:
        """Price the left-deep plan that joins relations in *order*."""
        plan = self.base_plan(order[0])
        for binding in order[1:]:
            plan = self.extend(plan, binding)
        return plan


class SyntacticPlanner(OrderPlanner):
    """FROM-clause order with locally best join methods."""

    def plan(self) -> SubPlan:
        return self.plan_order(self.graph.bindings())


class NaiveNLPlanner(OrderPlanner):
    """FROM order, sequential scans, tuple nested loops.  No optimizer."""

    def plan(self) -> SubPlan:
        order = self.graph.bindings()
        plan = self._seq_scan_plan(order[0])
        placed = {order[0]}
        for binding in order[1:]:
            right = self._seq_scan_plan(binding)
            conjuncts = self.graph.join_conjuncts_between(placed, {binding})
            placed.add(binding)
            hyper = [
                conjunct
                for tables, conjunct in self.graph.hyper
                if tables <= placed and binding in tables
            ]
            node = PNestedLoopJoin(
                plan.plan, right.plan, conjoin(conjuncts + hyper), block_pages=1
            )
            out_rows = self._dp._subset_rows(frozenset(placed))
            cost = plan.cost + self.model.block_nested_loop(
                plan.pages(), plan.rows, right.cost, right.rows,
                block_pages=1,
            )
            node.est_rows, node.est_cost = out_rows, cost
            plan = SubPlan(node, cost, out_rows, None, frozenset(placed))
        return plan

    def _seq_scan_plan(self, binding: str) -> SubPlan:
        get = self.graph.relations[binding]
        conjuncts = self.graph.filter_conjuncts(binding)
        scan = PSeqScan(get.table, binding, conjoin(conjuncts))
        rows = self.estimator.scan_rows(get.table, conjuncts)
        base_rows = float(get.table.num_rows)
        cost = self.model.seq_scan(get.table.num_pages, base_rows)
        if conjuncts:
            cost = cost + self.model.filter(base_rows, len(conjuncts))
        scan.est_rows, scan.est_cost = rows, cost
        return SubPlan(scan, cost, rows, None, frozenset([binding]))


class GreedyPlanner(OrderPlanner):
    """Smallest-relation-first, then smallest-intermediate-result."""

    def plan(self) -> SubPlan:
        # sorted, so that min() breaks a tie on binding name and not on
        # string-hash order
        remaining = sorted(self.graph.bindings())
        start = min(
            remaining,
            key=lambda b: self.estimator.scan_rows(
                self.graph.relations[b].table, self.graph.filter_conjuncts(b)
            ),
        )
        order = [start]
        remaining.remove(start)
        placed = {start}
        while remaining:
            connected = [
                b for b in remaining if self.graph.join_conjuncts_between(placed, {b})
            ]
            pool = connected or remaining
            nxt = min(
                pool,
                key=lambda b: self._dp._subset_rows(frozenset(placed | {b})),
            )
            order.append(nxt)
            placed.add(nxt)
            remaining.remove(nxt)
        return self.plan_order(order)


class ExhaustivePlanner(OrderPlanner):
    """Every left-deep permutation.  Only sane for small n."""

    def __init__(self, *args, max_relations: int = 9, **kwargs):
        super().__init__(*args, **kwargs)
        self.max_relations = max_relations

    def plan(self) -> SubPlan:
        bindings = self.graph.bindings()
        if len(bindings) > self.max_relations:
            raise ValueError(
                f"{len(bindings)} relations exceeds exhaustive limit "
                f"{self.max_relations}"
            )
        best: Optional[SubPlan] = None
        for perm in itertools.permutations(bindings):
            if not self._avoids_cross(perm):
                continue
            candidate = self.plan_order(list(perm))
            if best is None or candidate.cost.total < best.cost.total:
                best = candidate
        if best is None:  # fully disconnected graph: permit cross products
            for perm in itertools.permutations(bindings):
                candidate = self.plan_order(list(perm))
                if best is None or candidate.cost.total < best.cost.total:
                    best = candidate
        return best

    def _avoids_cross(self, perm) -> bool:
        placed = {perm[0]}
        for binding in perm[1:]:
            if not self.graph.join_conjuncts_between(placed, {binding}):
                return False
            placed.add(binding)
        return True


class RandomPlanner(OrderPlanner):
    """A random connected left-deep order (seeded, reproducible)."""

    def __init__(self, *args, seed: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.rng = random.Random(seed)

    def random_order(self) -> List[str]:
        bindings = self.graph.bindings()
        order = [self.rng.choice(bindings)]
        placed = {order[0]}
        remaining = [b for b in bindings if b not in placed]
        while remaining:
            connected = [
                b
                for b in remaining
                if self.graph.join_conjuncts_between(placed, {b})
            ]
            pool = connected or remaining
            nxt = self.rng.choice(pool)
            order.append(nxt)
            placed.add(nxt)
            remaining.remove(nxt)
        return order

    def plan(self) -> SubPlan:
        return self.plan_order(self.random_order())


#: strategy name -> baseline planner: the five non-DP STRATEGIES
BASELINES = {
    "syntactic": SyntacticPlanner,
    "naive": NaiveNLPlanner,
    "greedy": GreedyPlanner,
    "exhaustive": ExhaustivePlanner,
    "random": RandomPlanner,
}


def baseline_planner(strategy, graph, estimator, model, seed=0) -> OrderPlanner:
    """The planner *strategy* names; only ``random`` takes the seed."""
    if strategy == "random":
        return RandomPlanner(graph, estimator, model, seed=seed)
    return BASELINES[strategy](graph, estimator, model)
