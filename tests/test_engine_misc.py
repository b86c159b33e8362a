"""Tests for engine odds and ends: EXPLAIN ANALYZE, transient hygiene,
strategy switching, view-expander internals."""

import pytest

from repro import Database
from repro.engine import EngineError
from repro.engine.views import ViewError, is_mergeable
from repro.sql import parse


@pytest.fixture
def db():
    db = Database(buffer_pages=64, work_mem_pages=8)
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b FLOAT)")
    db.insert_rows("t", [(i, float(i)) for i in range(200)])
    db.execute("ANALYZE t")
    return db


class TestExplainAnalyze:
    def test_shows_actuals(self, db):
        r = db.execute("EXPLAIN ANALYZE SELECT b FROM t WHERE a < 10")
        text = "\n".join(x[0] for x in r.rows)
        assert "actual time=" in text
        assert "rows=10" in text
        assert "execution:" in text
        assert "planning:" in text

    def test_plain_explain_has_no_actuals(self, db):
        r = db.execute("EXPLAIN SELECT b FROM t WHERE a < 10")
        text = "\n".join(x[0] for x in r.rows)
        assert "(actual" not in text

    def test_analyse_spelling(self, db):
        r = db.execute("EXPLAIN ANALYSE SELECT COUNT(*) AS n FROM t")
        assert any("(actual" in x[0] for x in r.rows)


class TestStrategyAndMetrics:
    def test_set_strategy(self, db):
        db.set_strategy("greedy")
        assert db.options.strategy == "greedy"
        db.query("SELECT COUNT(*) AS n FROM t")
        db.set_strategy("dp", use_interesting_orders=False)
        assert not db.options.use_interesting_orders

    def test_plan_cleans_up_transients(self, db):
        db.execute(
            "CREATE VIEW agg AS SELECT COUNT(*) AS n FROM t"
        )
        # plan()/explain()/EXPLAIN on a materialized-view query used to leak
        # the transient backing table; all of them must clean up now
        db.plan("SELECT n FROM agg")
        assert not any(
            x.name.startswith("__view") for x in db.catalog.tables()
        )
        db.explain("SELECT n FROM agg")
        db.execute("EXPLAIN SELECT n FROM agg")
        assert not any(
            x.name.startswith("__view") for x in db.catalog.tables()
        )
        assert db._live_transients == []


class TestViewExpanderInternals:
    def test_is_mergeable(self):
        assert is_mergeable(parse("SELECT a, b FROM t WHERE a > 1"))
        assert is_mergeable(parse("SELECT * FROM t"))
        assert not is_mergeable(parse("SELECT a FROM t GROUP BY a"))
        assert not is_mergeable(parse("SELECT DISTINCT a FROM t"))
        assert not is_mergeable(parse("SELECT a FROM t LIMIT 3"))
        assert not is_mergeable(parse("SELECT a FROM t ORDER BY a"))
        assert not is_mergeable(parse("SELECT a + 1 AS x FROM t"))

    def test_view_nesting_depth_guard(self, db):
        # self-referential views are impossible to create in order, but a
        # long chain must not recurse forever
        db.execute("CREATE VIEW v0 AS SELECT a FROM t")
        for i in range(1, 20):
            db.execute(f"CREATE VIEW v{i} AS SELECT a FROM v{i-1}")
        with pytest.raises((ViewError, EngineError, RecursionError)):
            db.query("SELECT a FROM v19")

    def test_moderate_nesting_works(self, db):
        db.execute("CREATE VIEW w0 AS SELECT a FROM t WHERE a < 100")
        for i in range(1, 5):
            db.execute(f"CREATE VIEW w{i} AS SELECT a FROM w{i-1} WHERE a < {100 - i}")
        r = db.query("SELECT COUNT(*) AS n FROM w4")
        assert r.rows == [(96,)]


class TestResultColumnsOnDDL:
    def test_ddl_returns_empty(self, db):
        r = db.execute("CREATE TABLE z (q INT)")
        assert r.rows == [] and r.columns == []

    def test_delete_returns_count_column(self, db):
        r = db.execute("DELETE FROM t WHERE a < 5")
        assert r.columns == ["deleted"] and r.rows == [(5,)]

    def test_update_returns_count_column(self, db):
        r = db.execute("UPDATE t SET b = 0.0 WHERE a < 10")
        assert r.columns == ["updated"]
