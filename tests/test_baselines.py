"""Tests for baseline planners."""

import pytest

from repro.algebra import build_plan, extract_join_graph, push_down_predicates, transform_join_regions
from repro.engine import Database
from repro.optimizer import STRATEGIES, Estimator, StatsResolver
from repro.optimizer.baselines import (
    BASELINES,
    ExhaustivePlanner,
    GreedyPlanner,
    NaiveNLPlanner,
    RandomPlanner,
    SyntacticPlanner,
)
from repro.physical import PNestedLoopJoin, PSeqScan, walk_plan
from repro.sql import parse
from repro.workloads import build_chain


@pytest.fixture(scope="module")
def db():
    db = Database(buffer_pages=128, work_mem_pages=8)
    build_chain(db, 4, base_rows=200, seed=6, with_indexes=True)
    return db


SQL = (
    "SELECT COUNT(*) AS n FROM c0, c1, c2, c3 WHERE "
    "c0.fk = c1.id AND c1.fk = c2.id AND c2.fk = c3.id"
)


def graph_and_est(db, sql=SQL):
    plan = push_down_predicates(build_plan(parse(sql), db.catalog))
    graphs = []
    transform_join_regions(plan, lambda r: graphs.append(extract_join_graph(r)) or r)
    graph = graphs[0]
    return graph, Estimator(StatsResolver(graph))


class TestSyntactic:
    def test_joins_in_from_order(self, db):
        graph, est = graph_and_est(db)
        sub = SyntacticPlanner(graph, est, db.model).plan()
        assert sub.relations == frozenset({"c0", "c1", "c2", "c3"})
        # leftmost leaf must be the first FROM table
        node = sub.plan
        while node.children():
            node = node.children()[0]
        assert "c0" in node.describe()


class TestNaive:
    def test_only_seq_scans_and_nl(self, db):
        graph, est = graph_and_est(db)
        sub = NaiveNLPlanner(graph, est, db.model).plan()
        for node in walk_plan(sub.plan):
            assert isinstance(node, (PSeqScan, PNestedLoopJoin))
        nls = [
            n for n in walk_plan(sub.plan) if isinstance(n, PNestedLoopJoin)
        ]
        assert all(n.block_pages == 1 for n in nls)

    def test_naive_costlier_than_others(self, db):
        graph, est = graph_and_est(db)
        naive = NaiveNLPlanner(graph, est, db.model).plan()
        greedy = GreedyPlanner(graph, est, db.model).plan()
        assert naive.cost.total >= greedy.cost.total


class TestGreedy:
    def test_produces_full_plan(self, db):
        graph, est = graph_and_est(db)
        sub = GreedyPlanner(graph, est, db.model).plan()
        assert sub.relations == frozenset({"c0", "c1", "c2", "c3"})

    def test_never_beats_exhaustive(self, db):
        graph, est = graph_and_est(db)
        greedy = GreedyPlanner(graph, est, db.model).plan()
        exhaustive = ExhaustivePlanner(graph, est, db.model).plan()
        assert greedy.cost.total >= exhaustive.cost.total * (1 - 1e-9)


class TestExhaustive:
    def test_limit_enforced(self, db):
        graph, est = graph_and_est(db)
        planner = ExhaustivePlanner(graph, est, db.model, max_relations=2)
        with pytest.raises(ValueError):
            planner.plan()

    def test_handles_cross_only_graph(self, db):
        graph, est = graph_and_est(db, "SELECT COUNT(*) AS n FROM c0, c1")
        sub = ExhaustivePlanner(graph, est, db.model).plan()
        assert sub.relations == frozenset({"c0", "c1"})


class TestRandom:
    def test_deterministic_given_seed(self, db):
        graph, est = graph_and_est(db)
        a = RandomPlanner(graph, est, db.model, seed=7).plan()
        b = RandomPlanner(graph, est, db.model, seed=7).plan()
        assert a.cost.total == b.cost.total

    def test_different_seeds_vary(self, db):
        graph, est = graph_and_est(db)
        costs = {
            round(RandomPlanner(graph, est, db.model, seed=s).plan().cost.total, 3)
            for s in range(8)
        }
        assert len(costs) >= 2

    def test_order_prefers_connected(self, db):
        graph, est = graph_and_est(db)
        planner = RandomPlanner(graph, est, db.model, seed=1)
        order = planner.random_order()
        placed = {order[0]}
        for b in order[1:]:
            assert graph.join_conjuncts_between(placed, {b})
            placed.add(b)

    def test_plan_many(self, db):
        graph, est = graph_and_est(db)
        planner = RandomPlanner(graph, est, db.model, seed=2)
        plans = [planner.plan() for _ in range(3)]  # one rng, three draws
        assert len(plans) == 3
        assert all(p.relations == frozenset(graph.bindings()) for p in plans)


class TestExecutionAgreement:
    def test_all_baselines_same_answer(self, db):
        """Every planner's plan computes the same result."""
        graph, est = graph_and_est(db)
        planners = [
            SyntacticPlanner(graph, est, db.model),
            NaiveNLPlanner(graph, est, db.model),
            GreedyPlanner(graph, est, db.model),
            ExhaustivePlanner(graph, est, db.model),
            RandomPlanner(graph, est, db.model, seed=3),
        ]
        answers = []
        for p in planners:
            sub = p.plan()
            result = db.run_plan(sub.plan, cold=True)
            answers.append(len(result.rows))
        assert len(set(answers)) == 1


class TestStrategyTable:
    def test_table_names_every_non_dp_strategy(self):
        assert set(BASELINES) == set(STRATEGIES) - {"dp", "dp-bushy"}
