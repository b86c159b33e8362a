"""Property-based tests over the optimizer with hypothesis.

Random join graphs and random predicates; invariants:

* DP (left-deep) cost == exhaustive left-deep cost (optimality);
* every strategy's plan returns the same rows as a brute-force reference;
* estimated selectivities are always in [0, 1]; estimated cardinalities
  never negative.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.algebra import (
    build_plan,
    extract_join_graph,
    push_down_predicates,
    transform_join_regions,
)
from repro.expr import CmpOp, Comparison, col, lit
from repro.optimizer import (
    DPPlanner,
    Estimator,
    PlannerOptions,
    StatsResolver,
)
from repro.optimizer.baselines import ExhaustivePlanner
from repro.sql import parse


def make_db(seed: int, num_tables: int, rows_each: int = 60) -> Database:
    """Small database of joinable tables: t0..t{n-1}, each with id/fk/v."""
    db = Database(buffer_pages=64, work_mem_pages=4)
    rng = random.Random(seed)
    for t in range(num_tables):
        db.execute(f"CREATE TABLE t{t} (id INT, fk INT, v INT)")
        size = rows_each + rng.randrange(rows_each)
        db.insert_rows(
            f"t{t}",
            [
                (i, rng.randrange(rows_each), rng.randrange(10))
                for i in range(size)
            ],
        )
        if rng.random() < 0.5:
            db.execute(f"CREATE INDEX ix_t{t} ON t{t} (id)")
    db.execute("ANALYZE")
    return db


def random_query(rng: random.Random, num_tables: int, shape_bits: int):
    """A connected join query over t0..t{n-1} with random edges/filters."""
    tables = [f"t{i}" for i in range(num_tables)]
    edges = []
    for i in range(1, num_tables):
        # connect i to a random earlier table: always connected
        j = rng.randrange(i)
        left_col = rng.choice(["id", "fk"])
        right_col = rng.choice(["id", "fk"])
        edges.append(f"t{i}.{left_col} = t{j}.{right_col}")
    # extra edges from shape bits (clique-ward)
    for i, j in itertools.combinations(range(num_tables), 2):
        if shape_bits & 1 and f"t{i}.fk = t{j}.id" not in edges:
            edges.append(f"t{j}.id = t{i}.fk")
        shape_bits >>= 1
    filters = []
    for t in tables:
        if rng.random() < 0.5:
            filters.append(f"{t}.v {rng.choice(['<', '=', '>'])} {rng.randrange(10)}")
    where = " AND ".join(edges + filters)
    return f"SELECT COUNT(*) AS n FROM {', '.join(tables)} WHERE {where}"


def graph_of(db, sql):
    plan = push_down_predicates(build_plan(parse(sql), db.catalog))
    graphs = []
    transform_join_regions(
        plan, lambda r: graphs.append(extract_join_graph(r)) or r
    )
    return graphs[0]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10**6),
    num_tables=st.integers(2, 4),
    shape_bits=st.integers(0, 63),
)
def test_dp_matches_exhaustive_on_random_graphs(seed, num_tables, shape_bits):
    rng = random.Random(seed)
    db = make_db(seed, num_tables, rows_each=40)
    sql = random_query(rng, num_tables, shape_bits)
    graph = graph_of(db, sql)
    est = Estimator(StatsResolver(graph))
    dp = DPPlanner(graph, est, db.model)
    ex = ExhaustivePlanner(graph, est, db.model)
    dp_cost = dp.plan().cost.total
    ex_cost = ex.plan().cost.total
    assert dp_cost == pytest.approx(ex_cost, rel=1e-9)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10**6),
    num_tables=st.integers(2, 3),
    shape_bits=st.integers(0, 7),
)
def test_strategies_agree_on_random_queries(seed, num_tables, shape_bits):
    rng = random.Random(seed ^ 0xBEEF)
    db = make_db(seed, num_tables, rows_each=30)
    sql = random_query(rng, num_tables, shape_bits)
    reference = None
    for strategy in ("dp", "dp-bushy", "greedy", "syntactic", "random"):
        db.options = PlannerOptions(strategy=strategy)
        rows = db.query(sql).rows
        if reference is None:
            reference = rows
        else:
            assert rows == reference, (strategy, sql)


@settings(max_examples=30, deadline=None)
@given(
    op=st.sampled_from(list(CmpOp)),
    value=st.integers(-100, 1100),
    seed=st.integers(0, 100),
)
def test_selectivity_always_in_unit_interval(op, value, seed):
    db = make_db(seed % 3, 1, rows_each=50)
    sql = "SELECT COUNT(*) AS n FROM t0"
    graph = graph_of(db, sql)
    est = Estimator(StatsResolver(graph))
    sel = est.selectivity(Comparison(op, col("t0.id"), lit(value)))
    assert 0.0 <= sel <= 1.0


@settings(max_examples=15, deadline=None)
@given(
    left=st.floats(min_value=0, max_value=1e6),
    right=st.floats(min_value=0, max_value=1e6),
    seed=st.integers(0, 10),
)
def test_join_rows_non_negative(left, right, seed):
    db = make_db(seed, 2, rows_each=20)
    sql = "SELECT COUNT(*) AS n FROM t0, t1 WHERE t0.fk = t1.id"
    graph = graph_of(db, sql)
    est = Estimator(StatsResolver(graph))
    conjuncts = graph.join_conjuncts_between({"t0"}, {"t1"})
    assert left * right * est.join_selectivity(conjuncts) >= 0.0
    assert est.join_selectivity([]) == 1.0
