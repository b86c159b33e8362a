"""Tests for the logical rewrite: predicate pushdown.

Placement is checked structurally; semantics are checked by executing
queries with rewrites on and off and comparing result sets.
"""

import random

import pytest

from repro.algebra import (
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    build_plan,
    push_down_predicates,
)
from repro.engine import Database
from repro.optimizer import PlannerOptions
from repro.sql import parse


@pytest.fixture
def db():
    db = Database(buffer_pages=100, work_mem_pages=8)
    db.execute("CREATE TABLE orders (id INT, cust_id INT, amount FLOAT)")
    db.execute("CREATE TABLE customers (id INT, name TEXT, region TEXT)")
    rng = random.Random(8)
    db.insert_rows(
        "customers",
        [
            (i, f"c{i}", rng.choice(["east", "west"]))
            for i in range(50)
        ],
    )
    db.insert_rows(
        "orders",
        [
            (i, rng.randrange(50), rng.random() * 100)
            for i in range(400)
        ],
    )
    db.analyze()
    return db


def logical(db, sql):
    return build_plan(parse(sql), db.catalog)


def find_nodes(plan, node_type):
    out = []

    def visit(node):
        if isinstance(node, node_type):
            out.append(node)
        for child in node.children():
            visit(child)

    visit(plan)
    return out


class TestPushdownPlacement:
    def test_single_table_conjunct_lands_on_scan(self, db):
        p = push_down_predicates(
            logical(
                db,
                "SELECT o.id FROM orders o, customers c "
                "WHERE o.cust_id = c.id AND o.amount > 50",
            )
        )
        filters = find_nodes(p, LogicalFilter)
        scan_filters = [
            f for f in filters if isinstance(f.child, LogicalGet)
        ]
        assert any("amount" in str(f.predicate) for f in scan_filters)

    def test_join_conjunct_stays_at_join(self, db):
        p = push_down_predicates(
            logical(
                db,
                "SELECT o.id FROM orders o, customers c "
                "WHERE o.cust_id = c.id",
            )
        )
        joins = find_nodes(p, LogicalJoin)
        assert joins and joins[0].condition is not None

    def test_both_side_conjuncts_split(self, db):
        p = push_down_predicates(
            logical(
                db,
                "SELECT o.id FROM orders o, customers c WHERE "
                "o.cust_id = c.id AND o.amount > 10 AND c.region = 'east'",
            )
        )
        joins = find_nodes(p, LogicalJoin)
        left_leaves = find_nodes(joins[0].left, LogicalGet)
        right_leaves = find_nodes(joins[0].right, LogicalGet)
        assert {g.binding for g in left_leaves} == {"o"}
        assert {g.binding for g in right_leaves} == {"c"}
        # each side has its filter below the join
        left_filters = find_nodes(joins[0].left, LogicalFilter)
        right_filters = find_nodes(joins[0].right, LogicalFilter)
        assert left_filters and right_filters

    def test_no_pushdown_through_limit(self, db):
        # A filter above a LIMIT must not move below it.
        from repro.algebra import LogicalLimit
        from repro.expr import col, gt, lit

        inner = logical(db, "SELECT id, amount FROM orders LIMIT 5")
        outer = LogicalFilter(inner, gt(col("amount"), lit(1.0)))
        rewritten = push_down_predicates(outer)

        def depth_of(plan, node_type, depth=0):
            if isinstance(plan, node_type):
                return depth
            for child in plan.children():
                d = depth_of(child, node_type, depth + 1)
                if d is not None:
                    return d
            return None

        assert depth_of(rewritten, LogicalFilter) < depth_of(
            rewritten, LogicalLimit
        )

    def test_pushdown_through_projection_passthrough(self, db):
        from repro.algebra import LogicalProject
        from repro.expr import col, gt, lit

        inner = logical(db, "SELECT id, amount FROM orders")
        outer = LogicalFilter(inner, gt(col("amount"), lit(1.0)))
        rewritten = push_down_predicates(outer)
        # the filter should now sit below the projection
        assert isinstance(rewritten, LogicalProject)
        assert find_nodes(rewritten.child, LogicalFilter)


QUERIES = [
    "SELECT o.id, c.name FROM orders o, customers c "
    "WHERE o.cust_id = c.id AND o.amount > 30",
    "SELECT c.region, COUNT(*) AS n FROM orders o, customers c "
    "WHERE o.cust_id = c.id GROUP BY c.region",
    "SELECT o.id FROM orders o WHERE o.amount BETWEEN 10 AND 20 "
    "ORDER BY o.id LIMIT 7",
    "SELECT DISTINCT c.region FROM customers c WHERE c.name LIKE 'c1%'",
    "SELECT o.cust_id, SUM(o.amount) AS total FROM orders o "
    "GROUP BY o.cust_id HAVING SUM(o.amount) > 100 ORDER BY total DESC",
]


class TestSemanticsPreserved:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_pushdown_ablation_same_results(self, db, sql):
        db.options = PlannerOptions(strategy="dp", pushdown=True)
        with_rewrite = sorted(db.query(sql).rows, key=repr)
        db.options = PlannerOptions(strategy="dp", pushdown=False)
        without = sorted(db.query(sql).rows, key=repr)
        assert with_rewrite == without
