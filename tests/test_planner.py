"""Unit tests for the end-to-end planner: conversion, order propagation,
order equivalence, covering-index selection, ablation switches."""

import random

import pytest

from repro import Database
from repro.optimizer import PlannerOptions
from repro.physical import (
    PAggregate,
    PFilter,
    PIndexOnlyScan,
    PSort,
    walk_plan,
)


@pytest.fixture(scope="module")
def db():
    db = Database(buffer_pages=48, work_mem_pages=8)
    db.execute("CREATE TABLE fact (id INT, dim_id INT, m FLOAT)")
    # fact physically ordered by dim_id with a clustered index
    rng = random.Random(17)
    rows = sorted(
        ((i, rng.randrange(500), rng.random()) for i in range(8000)),
        key=lambda r: r[1],
    )
    db.insert_rows("fact", rows)
    db.execute("CREATE CLUSTERED INDEX ix_fact_dim ON fact (dim_id)")
    db.execute("CREATE TABLE dim (id INT, name TEXT)")
    db.insert_rows("dim", [(i, f"d{i}") for i in range(500)])
    db.execute("CREATE CLUSTERED INDEX ix_dim_id ON dim (id)")
    db.execute("ANALYZE")
    return db


def plan_of(db, sql, **options):
    saved = db.options
    try:
        db.options = PlannerOptions(**options)
        return db.plan(sql)
    finally:
        db.options = saved


def has_node(plan, node_type):
    return any(isinstance(n, node_type) for n in walk_plan(plan))


class TestOrderEquivalence:
    def test_order_by_other_side_of_equi_join(self, db):
        """ORDER BY dim.id satisfied by a plan sorted on fact.dim_id."""
        sql = (
            "SELECT fact.m, dim.id FROM fact, dim "
            "WHERE fact.dim_id = dim.id ORDER BY dim.id"
        )
        plan = plan_of(db, sql, strategy="dp", use_interesting_orders=True)
        assert not has_node(plan, PSort)
        rows = db.run_plan(plan).rows
        ids = [r[1] for r in rows]
        assert ids == sorted(ids)

    def test_order_by_same_side(self, db):
        sql = (
            "SELECT fact.dim_id, dim.name FROM fact, dim "
            "WHERE fact.dim_id = dim.id ORDER BY fact.dim_id"
        )
        plan = plan_of(db, sql, strategy="dp", use_interesting_orders=True)
        assert not has_node(plan, PSort)

    def test_without_tracking_sort_appears(self, db):
        sql = (
            "SELECT fact.dim_id, dim.name FROM fact, dim "
            "WHERE fact.dim_id = dim.id ORDER BY fact.dim_id"
        )
        plan = plan_of(db, sql, strategy="dp", use_interesting_orders=False)
        assert has_node(plan, PSort)

    def test_desc_order_still_sorts(self, db):
        sql = "SELECT fact.dim_id FROM fact ORDER BY fact.dim_id DESC"
        plan = plan_of(db, sql, strategy="dp")
        assert has_node(plan, PSort)  # only ASC rides the index

    def test_streaming_aggregate_on_sorted_input(self, db):
        sql = (
            "SELECT fact.dim_id, COUNT(*) AS n FROM fact "
            "GROUP BY fact.dim_id ORDER BY fact.dim_id"
        )
        plan = plan_of(db, sql, strategy="dp", use_interesting_orders=True)
        aggs = [n for n in walk_plan(plan) if isinstance(n, PAggregate)]
        # clustered index delivers dim_id order: stream agg, and the final
        # ORDER BY rides the group order — no sort anywhere
        assert aggs and aggs[0].streaming
        assert not has_node(plan, PSort)
        rows = db.run_plan(plan).rows
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        assert sum(r[1] for r in rows) == 8000


class TestCoveringIndex:
    def test_index_only_for_key_projection(self, db):
        plan = plan_of(
            db, "SELECT dim_id FROM fact WHERE dim_id < 50", strategy="dp"
        )
        assert has_node(plan, PIndexOnlyScan)

    def test_no_index_only_when_other_columns_needed(self, db):
        plan = plan_of(
            db, "SELECT dim_id, m FROM fact WHERE dim_id < 50", strategy="dp"
        )
        assert not has_node(plan, PIndexOnlyScan)

    def test_index_only_under_aggregate(self, db):
        plan = plan_of(
            db,
            "SELECT COUNT(dim_id) AS n FROM fact WHERE dim_id BETWEEN 5 AND 9",
            strategy="dp",
        )
        assert has_node(plan, PIndexOnlyScan)
        rows = db.run_plan(plan).rows
        check = db.query(
            "SELECT COUNT(*) AS n FROM fact WHERE dim_id BETWEEN 5 AND 9"
        ).rows
        assert rows == check

    def test_select_star_never_index_only(self, db):
        plan = plan_of(db, "SELECT * FROM fact WHERE dim_id < 5", strategy="dp")
        assert not has_node(plan, PIndexOnlyScan)


class TestAblationSwitches:
    def test_pushdown_off_keeps_filter_above_join(self, db):
        sql = (
            "SELECT COUNT(*) AS n FROM fact, dim "
            "WHERE fact.dim_id = dim.id AND fact.m > 0.9"
        )
        plan_off = plan_of(db, sql, strategy="dp", pushdown=False)
        filters = [n for n in walk_plan(plan_off) if isinstance(n, PFilter)]
        assert any("m >" in str(f.predicate) for f in filters)
        # results identical either way
        a = db.run_plan(plan_of(db, sql, strategy="dp", pushdown=True)).rows
        b = db.run_plan(plan_off).rows
        assert a == b

    def test_strategies_and_estimator_config(self, db):
        from repro.algebra import (
            build_plan,
            extract_join_graph,
            push_down_predicates,
            transform_join_regions,
        )
        from repro.optimizer import STRATEGIES, Estimator, EstimatorConfig, StatsResolver
        from repro.sql import parse

        sql = "SELECT COUNT(*) AS n FROM fact WHERE m < 0.5"
        base = db.run_plan(plan_of(db, sql, strategy="dp")).rows
        for strategy in STRATEGIES:
            assert db.run_plan(plan_of(db, sql, strategy=strategy)).rows == base
        # the estimator tiers E6 compares: estimates may differ, each is close
        graphs = []
        transform_join_regions(
            push_down_predicates(build_plan(parse(sql), db.catalog)),
            lambda r: graphs.append(extract_join_graph(r)) or r,
        )
        graph = graphs[0]
        for config in (
            EstimatorConfig(),
            EstimatorConfig(use_histograms=False, use_mcvs=False),
        ):
            est = Estimator(StatsResolver(graph), config).scan_rows(
                db.table("fact"), graph.filter_conjuncts("fact")
            )
            assert est == pytest.approx(base[0][0], rel=0.1)

    def test_planner_stats_exposed(self, db):
        result = db.query(
            "SELECT COUNT(*) AS n FROM fact, dim WHERE fact.dim_id = dim.id"
        )
        assert result.planner_stats is not None
        assert result.planner_stats.plans_considered > 0


class TestConversionDetails:
    def test_limit_short_circuits_cost(self, db):
        plan = plan_of(db, "SELECT m FROM fact LIMIT 3", strategy="dp")
        rows = db.run_plan(plan).rows
        assert len(rows) == 3

    def test_distinct_preserved(self, db):
        plan = plan_of(
            db, "SELECT DISTINCT dim_id FROM fact WHERE dim_id < 10",
            strategy="dp",
        )
        rows = db.run_plan(plan).rows
        assert sorted(r[0] for r in rows) == list(range(10))

    def test_projection_order_survival(self, db):
        # order produced below a projection must be recognized above it
        sql = (
            "SELECT dim_id AS d FROM fact WHERE dim_id < 100 ORDER BY d"
        )
        plan = plan_of(db, sql, strategy="dp")
        assert not has_node(plan, PSort)

    def test_hidden_sort_column_stripped(self, db):
        sql = "SELECT id FROM dim ORDER BY name"
        plan = plan_of(db, sql, strategy="dp")
        result = db.run_plan(plan)
        assert result.columns == ["id"]
        names = db.query("SELECT name, id FROM dim ORDER BY name").rows
        assert [r[0] for r in result.rows] == [r[1] for r in names]
