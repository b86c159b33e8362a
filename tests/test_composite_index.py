"""Tests for composite (multi-column) B+-tree indexes."""

import random

import pytest

from repro import Database
from repro.index import BPlusTree
from repro.index.keys import MAX_KEY, MIN_KEY, key_lt
from repro.physical import PIndexScan, walk_plan
from repro.storage import BufferPool, DiskManager
from repro.types import DataType


class TestCompositeKeys:
    def test_key_lt_lexicographic(self):
        assert key_lt((1, "a"), (1, "b"))
        assert key_lt((1, "z"), (2, "a"))
        assert not key_lt((2, "a"), (1, "z"))

    def test_prefix_sorts_before_extension(self):
        assert key_lt((1,), (1, "a"))
        assert not key_lt((1, "a"), (1,))

    def test_sentinels(self):
        assert key_lt(MIN_KEY, None)
        assert key_lt(MIN_KEY, -(10**18))
        assert key_lt(10**18, MAX_KEY)
        assert key_lt(None, MAX_KEY)
        assert key_lt((1, MIN_KEY), (1, None))
        assert key_lt((1, "zzz"), (1, MAX_KEY))
        assert key_lt(MIN_KEY, MAX_KEY)
        assert not key_lt(MAX_KEY, MAX_KEY)

    def test_null_components(self):
        assert key_lt((1, None), (1, "a"))
        assert not key_lt((1, "a"), (1, None))


class TestCompositeBPlusTree:
    def make(self):
        disk = DiskManager(512)
        pool = BufferPool(disk, 300)
        return BPlusTree(pool, (DataType.INT, DataType.INT), "c")

    def test_roundtrip_and_order(self):
        tree = self.make()
        entries = [((i % 10, i // 10), (i, 0)) for i in range(500)]
        random.Random(3).shuffle(entries)
        for key, rid in entries:
            tree.insert(key, rid)
        tree.validate()
        keys = [k for k, _ in tree.items()]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1]))

    def test_prefix_scan(self):
        tree = self.make()
        for i in range(300):
            tree.insert((i % 10, i), (i, 0))
        got = [k for k, _ in tree.range_scan((4, MIN_KEY), (4, MAX_KEY))]
        assert len(got) == 30 and all(k[0] == 4 for k in got)

    def test_prefix_plus_range(self):
        tree = self.make()
        for i in range(300):
            tree.insert((i % 10, i), (i, 0))
        got = [k for k, _ in tree.range_scan((4, 100), (4, 200))]
        assert all(k[0] == 4 and 100 <= k[1] <= 200 for k in got)
        assert got == sorted(got)

    def test_exact_search_and_delete(self):
        tree = self.make()
        for i in range(100):
            tree.insert((i, i * 2), (i, 0))
        assert tree.search((7, 14)) == [(7, 0)]
        assert tree.delete((7, 14), (7, 0))
        assert tree.search((7, 14)) == []
        tree.validate()

    def test_null_component_storage(self):
        tree = self.make()
        tree.insert((1, None), (1, 0))
        tree.insert((1, 5), (2, 0))
        items = [k for k, _ in tree.items()]
        assert items == [(1, None), (1, 5)]


@pytest.fixture
def db():
    db = Database(buffer_pages=64, work_mem_pages=8)
    db.execute("CREATE TABLE ev (user_id INT, day INT, kind TEXT, amt FLOAT)")
    rng = random.Random(5)
    rows = sorted(
        (
            (rng.randrange(50), rng.randrange(30), rng.choice("ab"), rng.random())
            for _ in range(5000)
        )
    )
    db.insert_rows("ev", rows)
    db.execute("CREATE CLUSTERED INDEX ix_ud ON ev (user_id, day)")
    db.execute("ANALYZE ev")
    db._rows = rows
    return db


def count_where(rows, pred):
    return sum(1 for r in rows if pred(r))


class TestCompositeThroughSQL:
    def test_catalog_metadata(self, db):
        ix = db.table("ev").index_on("user_id")
        assert ix.is_composite
        assert ix.columns == ("user_id", "day")

    def test_prefix_eq_plus_range(self, db):
        r = db.query(
            "SELECT COUNT(*) AS n FROM ev WHERE user_id = 5 "
            "AND day BETWEEN 10 AND 19"
        )
        want = count_where(db._rows, lambda x: x[0] == 5 and 10 <= x[1] <= 19)
        assert r.rows == [(want,)]

    def test_full_prefix_eq(self, db):
        r = db.query("SELECT COUNT(*) AS n FROM ev WHERE user_id = 5 AND day = 3")
        want = count_where(db._rows, lambda x: x[0] == 5 and x[1] == 3)
        assert r.rows == [(want,)]

    def test_leading_only(self, db):
        r = db.query("SELECT COUNT(*) AS n FROM ev WHERE user_id = 7")
        want = count_where(db._rows, lambda x: x[0] == 7)
        assert r.rows == [(want,)]

    def test_planner_uses_composite_index(self, db):
        plan = db.plan(
            "SELECT amt FROM ev WHERE user_id = 5 AND day BETWEEN 10 AND 12"
        )
        scans = [n for n in walk_plan(plan) if isinstance(n, PIndexScan)]
        assert scans and scans[0].index.is_composite

    def test_second_column_alone_not_sargable(self, db):
        plan = db.plan("SELECT COUNT(*) AS n FROM ev WHERE day = 3")
        assert not any(isinstance(n, PIndexScan) for n in walk_plan(plan))
        r = db.query("SELECT COUNT(*) AS n FROM ev WHERE day = 3")
        assert r.rows == [(count_where(db._rows, lambda x: x[1] == 3),)]

    def test_exclusive_bounds_correct(self, db):
        r = db.query(
            "SELECT COUNT(*) AS n FROM ev WHERE user_id = 5 AND day > 10 "
            "AND day < 20"
        )
        want = count_where(db._rows, lambda x: x[0] == 5 and 10 < x[1] < 20)
        assert r.rows == [(want,)]

    def test_composite_sql_create(self, db):
        db.execute("CREATE INDEX ix_kind ON ev (kind, user_id)")
        ix = db.table("ev").index_on("kind")
        assert ix.columns == ("kind", "user_id")
        r = db.query(
            "SELECT COUNT(*) AS n FROM ev WHERE kind = 'a' AND user_id = 3"
        )
        want = count_where(db._rows, lambda x: x[2] == "a" and x[0] == 3)
        assert r.rows == [(want,)]

    def test_index_maintained_by_dml(self, db):
        db.execute("DELETE FROM ev WHERE user_id = 5 AND day = 3")
        r = db.query("SELECT COUNT(*) AS n FROM ev WHERE user_id = 5 AND day = 3")
        assert r.rows == [(0,)]
        db.execute("INSERT INTO ev VALUES (5, 3, 'a', 0.5)")
        r = db.query("SELECT COUNT(*) AS n FROM ev WHERE user_id = 5 AND day = 3")
        assert r.rows == [(1,)]
        db.table("ev").index_on("user_id").structure.validate()

    def test_ordered_output_on_leading_column(self, db):
        plan = db.plan("SELECT user_id FROM ev WHERE user_id = 9 ORDER BY user_id")
        from repro.physical import PSort

        assert not any(isinstance(n, PSort) for n in walk_plan(plan))


class TestCompositeOrderElision:
    def test_multi_key_order_by_rides_composite_index(self, db):
        from repro.physical import PSort, walk_plan

        plan = db.plan(
            "SELECT user_id, day FROM ev WHERE user_id BETWEEN 3 AND 9 "
            "ORDER BY user_id, day"
        )
        assert not any(isinstance(n, PSort) for n in walk_plan(plan))
        rows = db.run_plan(plan).rows
        assert rows == sorted(rows)

    def test_wrong_key_order_still_sorts(self, db):
        from repro.physical import PSort, walk_plan

        plan = db.plan(
            "SELECT user_id, day FROM ev ORDER BY day, user_id"
        )
        assert any(isinstance(n, PSort) for n in walk_plan(plan))

    def test_longer_order_than_index_sorts(self, db):
        from repro.physical import PSort, walk_plan

        plan = db.plan(
            "SELECT user_id, day, amt FROM ev ORDER BY user_id, day, amt"
        )
        assert any(isinstance(n, PSort) for n in walk_plan(plan))


class TestCompositeIndexNL:
    def test_join_probes_leading_component(self, db):
        from repro.physical import walk_plan
        from repro.optimizer import PlannerOptions

        db.execute("CREATE TABLE probe (uid INT)")
        db.insert_rows("probe", [(i,) for i in range(0, 50, 5)])
        db.execute("ANALYZE probe")
        sql = (
            "SELECT probe.uid, ev.day FROM probe, ev "
            "WHERE probe.uid = ev.user_id"
        )
        plan = db.plan(sql)
        got = sorted(db.run_plan(plan).rows)
        db.options = PlannerOptions(strategy="naive")
        want = sorted(db.query(sql).rows)
        db.options = PlannerOptions(strategy="dp")
        assert got == want
