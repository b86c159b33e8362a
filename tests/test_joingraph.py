"""Tests for join-graph extraction and region substitution."""

import pytest

from repro.algebra import (
    JoinGraphError,
    build_plan,
    extract_join_graph,
    is_join_region,
    push_down_predicates,
    transform_join_regions,
)
from repro.catalog import Catalog
from repro.sql import parse
from repro.storage import BufferPool, DiskManager
from repro.types import DataType, schema_of


@pytest.fixture
def catalog():
    cat = Catalog(BufferPool(DiskManager(), 50))
    for name in ("a", "b", "c"):
        cat.create_table(
            name, schema_of(name, ("id", DataType.INT), ("fk", DataType.INT))
        )
    return cat


def region_of(catalog, sql):
    plan = push_down_predicates(build_plan(parse(sql), catalog))
    regions = []
    transform_join_regions(plan, lambda r: regions.append(r) or r)
    assert len(regions) == 1
    return regions[0]


class TestExtraction:
    def test_single_relation(self, catalog):
        g = extract_join_graph(
            region_of(catalog, "SELECT id FROM a WHERE id > 3")
        )
        assert g.bindings() == ["a"]
        assert len(g.filter_conjuncts("a")) == 1
        assert not g.edges

    def test_two_way_join(self, catalog):
        g = extract_join_graph(
            region_of(catalog, "SELECT a.id FROM a, b WHERE a.fk = b.id")
        )
        assert set(g.bindings()) == {"a", "b"}
        assert g.join_conjuncts_between({"a"}, {"b"})

    def test_chain_edges(self, catalog):
        g = extract_join_graph(
            region_of(
                catalog,
                "SELECT a.id FROM a, b, c "
                "WHERE a.fk = b.id AND b.fk = c.id",
            )
        )
        assert g.join_conjuncts_between({"a"}, {"b"}) and g.join_conjuncts_between({"b"}, {"c"})
        assert not g.join_conjuncts_between({"a"}, {"c"})

    def test_filters_assigned_per_relation(self, catalog):
        g = extract_join_graph(
            region_of(
                catalog,
                "SELECT a.id FROM a, b "
                "WHERE a.fk = b.id AND a.id > 1 AND b.id < 9",
            )
        )
        assert len(g.filter_conjuncts("a")) == 1
        assert len(g.filter_conjuncts("b")) == 1

    def test_hyper_conjunct(self, catalog):
        g = extract_join_graph(
            region_of(
                catalog,
                "SELECT a.id FROM a, b, c "
                "WHERE a.fk = b.id AND b.fk = c.id "
                "AND a.id + b.id + c.id > 0",
            )
        )
        assert len(g.hyper) == 1
        tables, _ = g.hyper[0]
        assert tables == frozenset({"a", "b", "c"})

    def test_syntactic_order_preserved(self, catalog):
        g = extract_join_graph(
            region_of(catalog, "SELECT c.id FROM c, a, b WHERE c.fk = a.id AND a.fk = b.id")
        )
        assert g.bindings() == ["c", "a", "b"]

    def test_non_region_rejected(self, catalog):
        plan = build_plan(
            parse("SELECT COUNT(*) AS n FROM a GROUP BY fk"), catalog
        )
        with pytest.raises(JoinGraphError):
            extract_join_graph(plan)


class TestConnectivity:
    def test_connected_subsets(self, catalog):
        g = extract_join_graph(
            region_of(
                catalog,
                "SELECT a.id FROM a, b, c "
                "WHERE a.fk = b.id AND b.fk = c.id",
            )
        )
        assert g.is_connected_subset({"a", "b"})
        assert g.is_connected_subset({"a", "b", "c"})
        assert not g.is_connected_subset({"a", "c"})
        assert g.is_connected_subset({"a"})
        assert not g.is_connected_subset(set())
        assert not g.has_cross_product()

    def test_cross_product_detection(self, catalog):
        g = extract_join_graph(region_of(catalog, "SELECT a.id FROM a, b"))
        assert g.has_cross_product()

    def test_join_conjuncts_between_sets(self, catalog):
        g = extract_join_graph(
            region_of(
                catalog,
                "SELECT a.id FROM a, b, c "
                "WHERE a.fk = b.id AND b.fk = c.id",
            )
        )
        assert len(g.join_conjuncts_between({"a", "b"}, {"c"})) == 1
        assert len(g.join_conjuncts_between({"a"}, {"c"})) == 0


class TestRegionDetection:
    def test_is_join_region(self, catalog):
        region = region_of(
            catalog, "SELECT a.id FROM a, b WHERE a.fk = b.id"
        )
        assert is_join_region(region)

    def test_project_is_not_region(self, catalog):
        plan = build_plan(parse("SELECT id FROM a"), catalog)
        assert not is_join_region(plan)
        assert is_join_region(plan.child)

    def test_transform_rebuilds_above_region(self, catalog):
        plan = build_plan(
            parse("SELECT COUNT(*) AS n FROM a, b WHERE a.fk = b.id"),
            catalog,
        )
        marker = []

        def swap(region):
            marker.append(region)
            return region

        out = transform_join_regions(plan, swap)
        assert len(marker) == 1
        assert type(out) is type(plan)
