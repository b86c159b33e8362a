"""Tests for views: merging, materialization, name handling."""

import pytest

from repro import Database
from repro.engine import EngineError
from repro.physical import PSeqScan, walk_plan


@pytest.fixture
def db():
    db = Database(buffer_pages=64, work_mem_pages=8)
    db.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, cust INT, amount FLOAT, "
        "status TEXT)"
    )
    db.insert_rows(
        "orders",
        [
            (i, i % 10, float((i * 7) % 100), "open" if i % 3 else "closed")
            for i in range(200)
        ],
    )
    db.execute("CREATE TABLE cust (id INT, name TEXT)")
    db.insert_rows("cust", [(i, f"c{i}") for i in range(10)])
    db.execute("ANALYZE")
    return db


class TestMergeableViews:
    def test_simple_view(self, db):
        db.execute(
            "CREATE VIEW big AS SELECT id, cust, amount FROM orders "
            "WHERE amount > 50"
        )
        got = db.query("SELECT COUNT(*) AS n FROM big").rows
        want = db.query(
            "SELECT COUNT(*) AS n FROM orders WHERE amount > 50"
        ).rows
        assert got == want

    def test_view_predicates_merge_into_scan(self, db):
        db.execute(
            "CREATE VIEW big AS SELECT id, amount FROM orders WHERE amount > 50"
        )
        plan = db.plan("SELECT id FROM big WHERE amount > 90")
        # merged: one scan carrying both predicates, no extra operators
        scans = [n for n in walk_plan(plan) if isinstance(n, PSeqScan)]
        assert len(scans) == 1
        assert "amount" in str(scans[0].predicate)

    def test_view_with_alias_columns(self, db):
        db.execute(
            "CREATE VIEW renamed AS SELECT id AS order_id, amount AS amt "
            "FROM orders"
        )
        r = db.query("SELECT order_id FROM renamed WHERE amt > 95")
        want = db.query("SELECT id FROM orders WHERE amount > 95").rows
        assert sorted(r.rows) == sorted(want)
        assert r.columns == ["order_id"]

    def test_view_join_with_base_table(self, db):
        db.execute(
            "CREATE VIEW open_orders AS SELECT id, cust, amount FROM orders "
            "WHERE status = 'open'"
        )
        got = db.query(
            "SELECT c.name, COUNT(*) AS n FROM open_orders o, cust c "
            "WHERE o.cust = c.id GROUP BY c.name"
        ).rows
        want = db.query(
            "SELECT c.name, COUNT(*) AS n FROM orders o, cust c "
            "WHERE o.cust = c.id AND o.status = 'open' GROUP BY c.name"
        ).rows
        assert sorted(got) == sorted(want)

    def test_view_over_view(self, db):
        db.execute(
            "CREATE VIEW big AS SELECT id, cust, amount FROM orders "
            "WHERE amount > 50"
        )
        db.execute(
            "CREATE VIEW bigger AS SELECT id, amount FROM big WHERE amount > 80"
        )
        got = db.query("SELECT COUNT(*) AS n FROM bigger").rows
        want = db.query(
            "SELECT COUNT(*) AS n FROM orders WHERE amount > 80"
        ).rows
        assert got == want

    def test_view_star(self, db):
        db.execute("CREATE VIEW vstar AS SELECT * FROM cust")
        got = db.query("SELECT name FROM vstar WHERE id = 3").rows
        assert got == [("c3",)]

    @pytest.mark.parametrize(
        "sql, columns",
        [
            ("SELECT * FROM small", ["id", "cust"]),
            ("SELECT * FROM small, cust", ["id", "cust", "cust.id", "name"]),
            (
                "SELECT * FROM cust JOIN small ON cust.id = small.cust",
                ["id", "cust", "cust.id", "name"],
            ),
        ],
    )
    def test_star_over_a_merged_view_shows_only_its_columns(self, db, sql, columns):
        """The tables a merge splices in are the view's internals: a bare
        ``*`` shows the view's output columns, not theirs."""
        db.execute("CREATE VIEW small AS SELECT id, cust FROM orders WHERE id < 3")
        r = db.query(sql)
        assert r.columns == columns
        assert all(len(row) == len(columns) for row in r.rows)

    def test_two_uses_of_same_view(self, db):
        db.execute("CREATE VIEW v AS SELECT id, cust FROM orders")
        r = db.query(
            "SELECT a.id FROM v a, v b WHERE a.id = b.id AND a.id < 5"
        )
        assert sorted(x[0] for x in r.rows) == [0, 1, 2, 3, 4]


class TestMaterializedViews:
    def test_aggregate_view(self, db):
        db.execute(
            "CREATE VIEW totals AS SELECT cust, SUM(amount) AS total "
            "FROM orders GROUP BY cust"
        )
        got = db.query(
            "SELECT c.name, t.total FROM totals t, cust c WHERE t.cust = c.id"
        )
        assert len(got.rows) == 10
        want = dict(
            db.query(
                "SELECT cust, SUM(amount) AS total FROM orders GROUP BY cust"
            ).rows
        )
        for name, total in got.rows:
            assert total == pytest.approx(want[int(name[1:])])

    def test_transients_cleaned_up(self, db):
        db.execute(
            "CREATE VIEW totals AS SELECT cust, SUM(amount) AS total "
            "FROM orders GROUP BY cust"
        )
        db.query("SELECT COUNT(*) AS n FROM totals")
        leftovers = [
            t.name for t in db.catalog.tables() if t.name.startswith("__view")
        ]
        assert leftovers == []

    def test_distinct_view_materializes(self, db):
        db.execute("CREATE VIEW vd AS SELECT DISTINCT status FROM orders")
        r = db.query("SELECT COUNT(*) AS n FROM vd")
        assert r.rows == [(2,)]

    def test_limit_view_materializes(self, db):
        db.execute(
            "CREATE VIEW first5 AS SELECT id FROM orders ORDER BY id LIMIT 5"
        )
        r = db.query("SELECT COUNT(*) AS n FROM first5")
        assert r.rows == [(5,)]


class TestViewManagement:
    def test_duplicate_name_rejected(self, db):
        db.execute("CREATE VIEW v AS SELECT id FROM cust")
        with pytest.raises(EngineError):
            db.execute("CREATE VIEW v AS SELECT id FROM cust")
        with pytest.raises(EngineError):
            db.execute("CREATE VIEW orders AS SELECT id FROM cust")

    def test_drop_view(self, db):
        db.execute("CREATE VIEW v AS SELECT id FROM cust")
        db.execute("DROP VIEW v")
        with pytest.raises(Exception):
            db.query("SELECT * FROM v")

    def test_drop_missing_view(self, db):
        with pytest.raises(EngineError):
            db.execute("DROP VIEW nope")

    def test_view_with_subquery_in_where(self, db):
        db.execute(
            "CREATE VIEW vq AS SELECT id FROM orders WHERE cust IN "
            "(SELECT id FROM cust WHERE name LIKE 'c1%')"
        )
        got = db.query("SELECT COUNT(*) AS n FROM vq").rows
        want = db.query(
            "SELECT COUNT(*) AS n FROM orders WHERE cust = 1"
        ).rows
        assert got == want
