"""Tests for the AST -> logical plan builder."""

import pytest

from repro.algebra import (
    BindError,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalSort,
    build_plan,
)
from repro.catalog import Catalog
from repro.sql import parse
from repro.storage import BufferPool, DiskManager
from repro.types import DataType, schema_of


@pytest.fixture
def catalog():
    disk = DiskManager()
    cat = Catalog(BufferPool(disk, 50))
    cat.create_table(
        "orders",
        schema_of(
            "orders",
            ("id", DataType.INT),
            ("cust_id", DataType.INT),
            ("amount", DataType.FLOAT),
        ),
    )
    cat.create_table(
        "customers",
        schema_of("customers", ("id", DataType.INT), ("name", DataType.TEXT)),
    )
    return cat


def plan_for(catalog, sql):
    return build_plan(parse(sql), catalog)


class TestShapes:
    def test_simple_select(self, catalog):
        p = plan_for(catalog, "SELECT id FROM orders")
        assert isinstance(p, LogicalProject)
        assert isinstance(p.child, LogicalGet)
        assert p.schema.names() == ["id"]

    def test_star_expansion(self, catalog):
        p = plan_for(catalog, "SELECT * FROM orders")
        assert p.schema.names() == ["id", "cust_id", "amount"]

    def test_qualified_star(self, catalog):
        p = plan_for(catalog, "SELECT c.* FROM orders o, customers c")
        assert p.schema.names() == ["id", "name"]

    def test_where_becomes_filter(self, catalog):
        p = plan_for(catalog, "SELECT id FROM orders WHERE amount > 5")
        assert isinstance(p.child, LogicalFilter)

    def test_implicit_join_left_deep(self, catalog):
        p = plan_for(
            catalog,
            "SELECT o.id FROM orders o, customers c WHERE o.cust_id = c.id",
        )
        def gets(node):  # the base-table scans, left to right
            if isinstance(node, LogicalGet):
                return [node]
            return [g for child in node.children() for g in gets(child)]

        assert [g.binding for g in gets(p)] == ["o", "c"]

    def test_explicit_join_condition_attached(self, catalog):
        p = plan_for(
            catalog,
            "SELECT o.id FROM orders o JOIN customers c ON o.cust_id = c.id",
        )
        join = p.child
        assert isinstance(join, LogicalJoin)
        assert join.condition is not None

    def test_order_limit_distinct(self, catalog):
        p = plan_for(
            catalog,
            "SELECT DISTINCT cust_id FROM orders ORDER BY cust_id LIMIT 3",
        )
        assert isinstance(p, LogicalLimit)
        assert isinstance(p.child, LogicalSort)
        assert isinstance(p.child.child, LogicalDistinct)

    def test_order_by_hidden_column(self, catalog):
        # ORDER BY a column not in the SELECT list: hidden column + strip
        p = plan_for(catalog, "SELECT id FROM orders ORDER BY amount")
        assert isinstance(p, LogicalProject)
        assert p.schema.names() == ["id"]
        assert isinstance(p.child, LogicalSort)

    def test_expression_projection(self, catalog):
        p = plan_for(catalog, "SELECT amount * 2 AS double FROM orders")
        assert p.schema.names() == ["double"]
        assert p.schema.column("double").dtype is DataType.FLOAT


class TestAggregates:
    def test_group_by(self, catalog):
        p = plan_for(
            catalog,
            "SELECT cust_id, COUNT(*) AS n, SUM(amount) AS s "
            "FROM orders GROUP BY cust_id",
        )
        assert isinstance(p, LogicalProject)
        agg = p.child
        assert isinstance(agg, LogicalAggregate)
        assert len(agg.aggs) == 2
        assert p.schema.names() == ["cust_id", "n", "s"]

    def test_global_aggregate_without_group(self, catalog):
        p = plan_for(catalog, "SELECT COUNT(*) AS n FROM orders")
        agg = p.child
        assert isinstance(agg, LogicalAggregate)
        assert agg.group_exprs == ()

    def test_having(self, catalog):
        p = plan_for(
            catalog,
            "SELECT cust_id FROM orders GROUP BY cust_id HAVING COUNT(*) > 2",
        )
        having = p.child
        assert isinstance(having, LogicalFilter)
        assert isinstance(having.child, LogicalAggregate)

    def test_having_aggregate_not_in_select(self, catalog):
        p = plan_for(
            catalog,
            "SELECT cust_id FROM orders GROUP BY cust_id "
            "HAVING SUM(amount) > 10",
        )
        agg = p.child.child
        assert any(str(a).startswith("SUM") for a in agg.aggs)

    def test_order_by_alias_of_aggregate(self, catalog):
        p = plan_for(
            catalog,
            "SELECT cust_id, SUM(amount) AS total FROM orders "
            "GROUP BY cust_id ORDER BY total DESC",
        )
        assert isinstance(p, LogicalSort)

    def test_avg_type_is_float(self, catalog):
        p = plan_for(catalog, "SELECT AVG(cust_id) AS a FROM orders")
        assert p.schema.column("a").dtype is DataType.FLOAT


class TestErrors:
    def test_unknown_table(self, catalog):
        with pytest.raises(Exception):
            plan_for(catalog, "SELECT * FROM nope")

    def test_duplicate_binding(self, catalog):
        with pytest.raises(BindError):
            plan_for(catalog, "SELECT * FROM orders o, customers o")

    def test_nongrouped_column_rejected(self, catalog):
        with pytest.raises(BindError):
            plan_for(
                catalog,
                "SELECT amount FROM orders GROUP BY cust_id",
            )

    def test_aggregate_in_where_rejected(self, catalog):
        with pytest.raises(BindError):
            plan_for(catalog, "SELECT id FROM orders WHERE SUM(amount) > 1")

    def test_having_without_group_or_agg(self, catalog):
        with pytest.raises(BindError):
            plan_for(catalog, "SELECT id FROM orders HAVING id > 1")

    def test_duplicate_output_names_deduped(self, catalog):
        p = plan_for(catalog, "SELECT id, id FROM orders")
        names = p.schema.names()
        assert len(names) == len(set(names))
        assert names[0] == "id"

    def test_select_without_from(self, catalog):
        with pytest.raises(BindError):
            plan_for(catalog, "SELECT 1 AS one")

    def test_nested_aggregate(self, catalog):
        with pytest.raises(BindError):
            plan_for(catalog, "SELECT SUM(COUNT(*)) AS x FROM orders")

    def test_ambiguous_column(self, catalog):
        with pytest.raises(Exception):
            plan_for(
                catalog,
                "SELECT id FROM orders o, customers c WHERE o.cust_id = c.id",
            )
