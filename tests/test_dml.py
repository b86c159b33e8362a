"""Tests for SQL DELETE and UPDATE (with index maintenance)."""

import pytest

from repro import Database


@pytest.fixture
def db():
    db = Database(buffer_pages=64, work_mem_pages=8)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v FLOAT)")
    db.insert_rows("t", [(i, i % 5, float(i)) for i in range(100)])
    db.execute("CREATE INDEX ix_grp ON t (grp) USING hash")
    db.execute("ANALYZE t")
    return db


class TestDelete:
    def test_delete_with_predicate(self, db):
        r = db.execute("DELETE FROM t WHERE grp = 2")
        assert r.rows == [(20,)]
        assert db.query("SELECT COUNT(*) AS n FROM t").rows == [(80,)]
        assert db.query("SELECT COUNT(*) AS n FROM t WHERE grp = 2").rows == [(0,)]

    def test_delete_maintains_btree(self, db):
        db.execute("DELETE FROM t WHERE id BETWEEN 10 AND 19")
        # pk index must not return ghosts
        assert db.query("SELECT id FROM t WHERE id = 15").rows == []
        assert db.query("SELECT id FROM t WHERE id = 25").rows == [(25,)]
        ix = db.table("t").index_on("id")
        assert ix.structure.num_entries == 90
        ix.structure.validate()

    def test_delete_all(self, db):
        r = db.execute("DELETE FROM t")
        assert r.rows == [(100,)]
        assert db.query("SELECT COUNT(*) AS n FROM t").rows == [(0,)]
        assert db.table("t").index_on("grp").structure.num_entries == 0

    def test_delete_nothing(self, db):
        r = db.execute("DELETE FROM t WHERE id = -5")
        assert r.rows == [(0,)]

    def test_reinsert_after_delete(self, db):
        db.execute("DELETE FROM t WHERE id = 7")
        db.execute("INSERT INTO t VALUES (7, 99, 7.5)")
        assert db.query("SELECT grp, v FROM t WHERE id = 7").rows == [(99, 7.5)]


class TestUpdate:
    def test_update_values(self, db):
        r = db.execute("UPDATE t SET v = v * 10 WHERE id < 10")
        assert r.rows == [(10,)]
        assert db.query("SELECT v FROM t WHERE id = 3").rows == [(30.0,)]
        assert db.query("SELECT v FROM t WHERE id = 50").rows == [(50.0,)]

    def test_update_indexed_column(self, db):
        db.execute("UPDATE t SET grp = 9 WHERE grp = 1")
        assert db.query("SELECT COUNT(*) AS n FROM t WHERE grp = 1").rows == [(0,)]
        assert db.query("SELECT COUNT(*) AS n FROM t WHERE grp = 9").rows == [(20,)]
        # secondary index consistent with heap
        ix = db.table("t").index_on("grp")
        assert ix.structure.num_entries == 100

    def test_update_multiple_assignments(self, db):
        db.execute("UPDATE t SET grp = grp + 10, v = 0.0 WHERE id = 5")
        assert db.query("SELECT grp, v FROM t WHERE id = 5").rows == [(10, 0.0)]

    def test_update_all_rows(self, db):
        r = db.execute("UPDATE t SET v = 1.0")
        assert r.rows == [(100,)]
        assert db.query("SELECT SUM(v) AS s FROM t").rows == [(100.0,)]

    def test_update_uses_old_row_values(self, db):
        # SET a = b, b = a style: both read the OLD row
        db.execute("CREATE TABLE sw (a INT, b INT)")
        db.insert_rows("sw", [(1, 2)])
        db.execute("UPDATE sw SET a = b, b = a")
        assert db.query("SELECT a, b FROM sw").rows == [(2, 1)]

    def test_update_pk_column(self, db):
        db.execute("UPDATE t SET id = 1000 WHERE id = 0")
        assert db.query("SELECT id FROM t WHERE id = 1000").rows == [(1000,)]
        assert db.query("SELECT id FROM t WHERE id = 0").rows == []
        db.table("t").index_on("id").structure.validate()

    def test_update_nothing(self, db):
        r = db.execute("UPDATE t SET v = 0.0 WHERE id = -1")
        assert r.rows == [(0,)]

    def test_growing_update_relocates(self, db):
        db.execute("CREATE TABLE s (id INT PRIMARY KEY, name TEXT)")
        db.insert_rows("s", [(i, "ab") for i in range(50)])
        db.execute("UPDATE s SET name = 'a considerably longer string' WHERE id = 25")
        assert db.query("SELECT name FROM s WHERE id = 25").rows == [
            ("a considerably longer string",)
        ]
        assert db.query("SELECT COUNT(*) AS n FROM s").rows == [(50,)]


class TestDMLThenAnalyze:
    def test_stats_refresh_after_dml(self, db):
        db.execute("DELETE FROM t WHERE id >= 50")
        db.execute("ANALYZE t")
        assert db.table("t").stats.num_rows == 50
        r = db.query("SELECT COUNT(*) AS n FROM t WHERE id < 10")
        assert r.rows == [(10,)]
