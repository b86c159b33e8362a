"""Tests for the catalog: tables, indexes, ANALYZE."""

import pytest

from repro.catalog import Catalog, CatalogError
from repro.storage import BufferPool, DiskManager
from repro.types import DataType, schema_of


def make_catalog(pool_pages=200):
    disk = DiskManager()
    pool = BufferPool(disk, pool_pages)
    return disk, Catalog(pool)


def orders_schema():
    return schema_of(
        "orders",
        ("id", DataType.INT),
        ("cust", DataType.INT),
        ("amount", DataType.FLOAT),
    )


class TestTables:
    def test_create_and_lookup(self):
        _, cat = make_catalog()
        info = cat.create_table("orders", orders_schema())
        assert cat.table("orders") is info
        assert cat.table("ORDERS") is info  # case-insensitive
        assert cat.has_table("orders")

    def test_duplicate_rejected(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        with pytest.raises(CatalogError):
            cat.create_table("T", orders_schema())

    def test_unknown_table(self):
        _, cat = make_catalog()
        with pytest.raises(CatalogError):
            cat.table("missing")

    def test_drop_table(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        cat.insert_rows("t", [(1, 2, 3.0)])
        cat.create_index("ix", "t", "id")
        cat.drop_table("t")
        assert not cat.has_table("t")

    def test_tables_listing(self):
        _, cat = make_catalog()
        cat.create_table("a", orders_schema())
        assert [t.name for t in cat.tables()] == ["a"]


class TestInsertAndIndexMaintenance:
    def test_insert_rows_counts(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        assert cat.insert_rows("t", [(i, i, float(i)) for i in range(10)]) == 10
        assert cat.table("t").num_rows == 10

    def test_index_built_over_existing_rows(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        cat.insert_rows("t", [(i, i % 3, float(i)) for i in range(50)])
        ix = cat.create_index("ix", "t", "cust")
        assert ix.structure.num_entries == 50
        rids = ix.structure.search(1)
        info = cat.table("t")
        assert all(info.heap.fetch(r)[1] == 1 for r in rids)

    def test_inserts_maintain_indexes(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        cat.create_index("ix", "t", "id")
        cat.insert_rows("t", [(7, 1, 1.0)])
        info = cat.table("t")
        assert len(info.index_on("id").structure.search(7)) == 1

    def test_btree_keeps_nulls(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        cat.create_index("ix", "t", "cust")
        cat.insert_rows("t", [(1, None, 1.0)])
        assert cat.table("t").index_on("cust").structure.num_entries == 1


class TestIndexRules:
    def test_duplicate_index_rejected(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        cat.create_index("a", "t", "id")
        with pytest.raises(CatalogError):
            cat.create_index("b", "t", "id")

    def test_single_clustered_index(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        cat.create_index("a", "t", "id", clustered=True)
        with pytest.raises(CatalogError):
            cat.create_index("b", "t", "cust", clustered=True)

    def test_index_metadata(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        cat.insert_rows("t", [(i, i, float(i)) for i in range(300)])
        ix = cat.create_index("a", "t", "id", clustered=True)
        assert ix.clustered
        assert ix.height >= 1
        assert ix.leaf_pages >= 1


class TestAnalyze:
    def test_analyze_fills_stats(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        cat.insert_rows("t", [(i, i % 7, float(i)) for i in range(100)])
        stats = cat.analyze("t")
        assert stats.num_rows == 100
        assert stats.column("cust").num_distinct == 7
        assert cat.table("t").column_stats("id").max_value == 99

    def test_analyze_all(self):
        _, cat = make_catalog()
        cat.create_table("a", orders_schema())
        cat.create_table("b", schema_of("b", ("x", DataType.TEXT)))
        cat.insert_rows("a", [(1, 1, 1.0)])
        cat.insert_rows("b", [("hi",)])
        cat.analyze_all()
        assert cat.table("a").stats.num_rows == 1
        assert cat.table("b").stats.num_rows == 1

    def test_stats_none_before_analyze(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        assert cat.table("t").stats is None
        assert cat.table("t").column_stats("id") is None

    def test_analyze_refreshes_index_leaf_pages(self):
        _, cat = make_catalog()
        cat.create_table("t", orders_schema())
        ix = cat.create_index("a", "t", "id")
        before = ix.leaf_pages
        cat.insert_rows("t", [(i, i, float(i)) for i in range(2000)])
        cat.analyze("t")
        assert ix.leaf_pages > before
