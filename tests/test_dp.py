"""Tests for the DP join enumerator.

The load-bearing property: DP (left-deep) finds a plan with the same cost
as exhaustive enumeration of left-deep orders, at far fewer considered
plans — on every join-graph shape.
"""

import pytest

from repro.algebra import extract_join_graph, push_down_predicates, build_plan, transform_join_regions
from repro.engine import Database
from repro.optimizer import DPPlanner, Estimator, StatsResolver, count_dp_subsets
from repro.optimizer.baselines import ExhaustivePlanner
from repro.physical import PHashJoin, PIndexNLJoin, PNestedLoopJoin, PSortMergeJoin, walk_plan
from repro.workloads import build_chain, build_clique, build_star


def graph_for(db, sql):
    plan = push_down_predicates(build_plan(__import__("repro.sql", fromlist=["parse"]).parse(sql), db.catalog))
    graphs = []
    transform_join_regions(plan, lambda r: graphs.append(extract_join_graph(r)) or r)
    return graphs[0]


def planners_for(db, sql, **dp_kwargs):
    graph = graph_for(db, sql)
    est = Estimator(StatsResolver(graph))
    dp = DPPlanner(graph, est, db.model, **dp_kwargs)
    ex = ExhaustivePlanner(graph, est, db.model)
    return dp, ex


@pytest.fixture(scope="module")
def chain_db():
    db = Database(buffer_pages=128, work_mem_pages=8)
    build_chain(db, 5, base_rows=300, seed=3, with_indexes=True)
    return db


@pytest.fixture(scope="module")
def star_db():
    db = Database(buffer_pages=128, work_mem_pages=8)
    build_star(db, 5, fact_rows=1500, dim_base=40, seed=4, with_indexes=True)
    return db


@pytest.fixture(scope="module")
def clique_db():
    db = Database(buffer_pages=128, work_mem_pages=8)
    build_clique(db, 4, base_rows=200, seed=5)
    return db


class TestOptimality:
    def test_dp_matches_exhaustive_on_chain(self, chain_db):
        db = chain_db
        sql = (
            "SELECT COUNT(*) AS n FROM c0, c1, c2, c3, c4 WHERE "
            "c0.fk = c1.id AND c1.fk = c2.id AND c2.fk = c3.id "
            "AND c3.fk = c4.id"
        )
        dp, ex = planners_for(db, sql)
        dp_cost = dp.plan().cost.total
        ex_cost = ex.plan().cost.total
        assert dp_cost == pytest.approx(ex_cost, rel=1e-9)

    def test_dp_matches_exhaustive_on_star(self, star_db):
        db = star_db
        sql = (
            "SELECT COUNT(*) AS n FROM sfact, sd0, sd1, sd2 WHERE "
            "sfact.fk0 = sd0.id AND sfact.fk1 = sd1.id AND sfact.fk2 = sd2.id"
        )
        dp, ex = planners_for(db, sql)
        assert dp.plan().cost.total == pytest.approx(
            ex.plan().cost.total, rel=1e-9
        )

    def test_dp_matches_exhaustive_on_clique(self, clique_db):
        db = clique_db
        sql = (
            "SELECT COUNT(*) AS n FROM q0, q1, q2, q3 WHERE "
            "q0.k = q1.k AND q0.k = q2.k AND q0.k = q3.k AND q1.k = q2.k "
            "AND q1.k = q3.k AND q2.k = q3.k"
        )
        dp, ex = planners_for(db, sql)
        assert dp.plan().cost.total <= ex.plan().cost.total * (1 + 1e-9)

    def test_bushy_never_worse_than_left_deep(self, chain_db):
        sql = (
            "SELECT COUNT(*) AS n FROM c0, c1, c2, c3 WHERE "
            "c0.fk = c1.id AND c1.fk = c2.id AND c2.fk = c3.id"
        )
        dp_left, _ = planners_for(chain_db, sql, left_deep=True)
        dp_bushy, _ = planners_for(chain_db, sql, left_deep=False)
        assert (
            dp_bushy.plan().cost.total
            <= dp_left.plan().cost.total * (1 + 1e-9)
        )


class TestSearchBehaviour:
    def test_effort_grows_with_relations(self, chain_db):
        costs = []
        for n in (2, 3, 4, 5):
            tables = ", ".join(f"c{i}" for i in range(n))
            joins = " AND ".join(
                f"c{i}.fk = c{i+1}.id" for i in range(n - 1)
            )
            dp, _ = planners_for(
                chain_db, f"SELECT COUNT(*) AS n FROM {tables} WHERE {joins}"
            )
            dp.plan()
            costs.append(dp.stats.plans_considered)
        assert costs == sorted(costs) and costs[-1] > costs[0]

    def test_cross_products_avoided_on_connected_graph(self, chain_db):
        sql = (
            "SELECT COUNT(*) AS n FROM c0, c1, c2 "
            "WHERE c0.fk = c1.id AND c1.fk = c2.id"
        )
        dp, _ = planners_for(chain_db, sql)
        plan = dp.plan().plan
        for node in walk_plan(plan):
            if isinstance(node, PNestedLoopJoin):
                assert node.condition is not None

    def test_disconnected_graph_still_plans(self, chain_db):
        dp, _ = planners_for(
            chain_db, "SELECT COUNT(*) AS n FROM c0, c1"
        )
        sub = dp.plan()
        assert sub.relations == frozenset({"c0", "c1"})

    def test_join_methods_all_appear_somewhere(self, chain_db):
        """Across candidate generation, every join method gets considered."""
        sql = (
            "SELECT COUNT(*) AS n FROM c0, c1 WHERE c0.fk = c1.id"
        )
        graph = graph_for(chain_db, sql)
        est = Estimator(StatsResolver(graph))
        dp = DPPlanner(graph, est, chain_db.model)
        bases = dp._base_plans("c0"), dp._base_plans("c1")
        left = min(bases[0].values(), key=lambda s: s.cost.total)
        right = min(bases[1].values(), key=lambda s: s.cost.total)
        kinds = {
            type(c.plan) for c in dp.join_candidates(left, right)
        }
        assert PNestedLoopJoin in kinds
        assert PHashJoin in kinds
        assert PSortMergeJoin in kinds
        assert PIndexNLJoin in kinds  # c1.id has an index

    def test_subset_rows_consistent(self, chain_db):
        sql = (
            "SELECT COUNT(*) AS n FROM c0, c1, c2 "
            "WHERE c0.fk = c1.id AND c1.fk = c2.id"
        )
        graph = graph_for(chain_db, sql)
        est = Estimator(StatsResolver(graph))
        dp = DPPlanner(graph, est, chain_db.model)
        s1 = dp._subset_rows(frozenset({"c0", "c1"}))
        s2 = dp._subset_rows(frozenset({"c0", "c1"}))
        assert s1 == s2  # memoized, stable


class TestInterestingOrders:
    def test_ordered_plan_kept(self, chain_db):
        sql = "SELECT COUNT(*) AS n FROM c0, c1 WHERE c0.fk = c1.id"
        graph = graph_for(chain_db, sql)
        est = Estimator(StatsResolver(graph))
        dp = DPPlanner(graph, est, chain_db.model, use_interesting_orders=True)
        table = dp.plan_all_orders()
        assert len(table) >= 1
        # with orders disabled everything collapses to one entry
        dp2 = DPPlanner(
            graph, est, chain_db.model, use_interesting_orders=False
        )
        assert len(dp2.plan_all_orders()) == 1

    def test_merge_join_propagates_order(self, chain_db):
        sql = "SELECT COUNT(*) AS n FROM c0, c1 WHERE c0.fk = c1.id"
        graph = graph_for(chain_db, sql)
        est = Estimator(StatsResolver(graph))
        dp = DPPlanner(graph, est, chain_db.model)
        table = dp.plan_all_orders()
        ordered = {o for o in table if o is not None}
        assert ordered <= {"c0.fk", "c1.id"}

    def test_analytic_subset_counts(self):
        assert count_dp_subsets(4, "chain") == 10
        assert count_dp_subsets(4, "clique") == 15
        assert count_dp_subsets(4, "star") == 11
        with pytest.raises(ValueError):
            count_dp_subsets(4, "ring")
