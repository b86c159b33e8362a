"""End-to-end SQL tests through the Database facade."""

import random

import pytest

from repro import Database
from repro.engine import EngineError
from repro.optimizer import PlannerOptions, STRATEGIES


@pytest.fixture
def db():
    db = Database(buffer_pages=128, work_mem_pages=8)
    db.execute(
        "CREATE TABLE emp (id INT PRIMARY KEY, dept TEXT, salary FLOAT, "
        "boss INT)"
    )
    rng = random.Random(21)
    rows = [
        (
            i,
            rng.choice(["eng", "sales", "hr"]),
            30000.0 + rng.random() * 70000,
            rng.randrange(10) if i >= 10 else None,
        )
        for i in range(300)
    ]
    db.insert_rows("emp", rows)
    db.execute("CREATE TABLE dept (name TEXT, budget FLOAT)")
    db.insert_rows(
        "dept", [("eng", 1e6), ("sales", 5e5), ("hr", 2e5)]
    )
    db.execute("ANALYZE")
    db._rows = rows
    return db


class TestDDL:
    def test_create_insert_select(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert db.query("SELECT * FROM t").rows == [(1, "x"), (2, "y")]

    def test_primary_key_creates_clustered_index(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
        ix = db.table("t").index_on("a")
        assert ix is not None and ix.clustered

    def test_insert_with_column_list(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b TEXT, c FLOAT)")
        db.execute("INSERT INTO t (c, a) VALUES (1.5, 7)")
        assert db.query("SELECT * FROM t").rows == [(7, None, 1.5)]

    def test_insert_unknown_column(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(EngineError):
            db.execute("INSERT INTO t (zz) VALUES (1)")

    @pytest.mark.parametrize(
        "sql, complaint",
        [
            ("INSERT INTO t (id, id) VALUES (3, 4)", r"twice: \['id'\]"),
            ("INSERT INTO t (id) VALUES (7, 8)", "1 columns but 2 values"),
            ("INSERT INTO t (id, k) VALUES (9)", "2 columns but 1 values"),
            # the second row is the misshapen one: the first is not stored
            ("INSERT INTO t (id, k) VALUES (5, 6), (7)", "2 columns but 1"),
            ("INSERT INTO t VALUES (5, 6, 'c'), (7, 8)", "3 columns but 2"),
        ],
    )
    def test_misshapen_insert_is_refused_whole(self, sql, complaint):
        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT, s TEXT)")
        db.execute("INSERT INTO t (s, id) VALUES ('a', 1), ('b', 2)")
        with pytest.raises(EngineError, match=complaint):
            db.execute(sql)
        assert db.query("SELECT COUNT(*) FROM t").rows == [(2,)]
        assert db.query("SELECT * FROM t").rows == [
            (1, None, "a"),
            (2, None, "b"),
        ]

    def test_insert_expression_folds(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (2 + 3)")
        assert db.query("SELECT a FROM t").rows == [(5,)]

    def test_insert_non_constant_rejected(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(EngineError):
            db.execute("INSERT INTO t VALUES (a)")

    def test_drop_table(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("DROP TABLE t")
        assert not db.catalog.has_table("t")

    def test_create_index_statement(self, db):
        db.execute("CREATE INDEX ix_dept ON emp (dept) USING hash")
        assert db.table("emp").index_on("dept") is not None


class TestQueries:
    def test_filter_and_project(self, db):
        r = db.query("SELECT id FROM emp WHERE salary > 99000")
        expected = [(x[0],) for x in db._rows if x[2] > 99000]
        assert sorted(r.rows) == sorted(expected)

    def test_point_query_via_pk(self, db):
        r = db.query("SELECT dept FROM emp WHERE id = 42")
        assert r.rows == [(db._rows[42][1],)]
        assert "IndexScan" in r.plan.pretty()

    def test_group_by_having_order(self, db):
        r = db.query(
            "SELECT dept, COUNT(*) AS n, AVG(salary) AS avg_sal "
            "FROM emp GROUP BY dept HAVING COUNT(*) > 10 "
            "ORDER BY avg_sal DESC"
        )
        by_dept = {}
        for row in db._rows:
            by_dept.setdefault(row[1], []).append(row[2])
        expected = {
            d: (len(v), sum(v) / len(v))
            for d, v in by_dept.items()
            if len(v) > 10
        }
        assert len(r.rows) == len(expected)
        avgs = [row[2] for row in r.rows]
        assert avgs == sorted(avgs, reverse=True)
        for d, n, avg in r.rows:
            assert expected[d][0] == n
            assert avg == pytest.approx(expected[d][1])

    def test_join(self, db):
        r = db.query(
            "SELECT e.id, d.budget FROM emp e, dept d WHERE e.dept = d.name "
            "AND e.salary > 95000"
        )
        expected = [
            (row[0], {"eng": 1e6, "sales": 5e5, "hr": 2e5}[row[1]])
            for row in db._rows
            if row[2] > 95000
        ]
        assert sorted(r.rows) == sorted(expected)

    def test_self_join(self, db):
        r = db.query(
            "SELECT a.id, b.id FROM emp a, emp b WHERE a.boss = b.id "
            "AND a.id < 20"
        )
        expected = [
            (x[0], x[3])
            for x in db._rows
            if x[3] is not None and x[0] < 20
        ]
        assert sorted(r.rows) == sorted(expected)

    def test_distinct(self, db):
        r = db.query("SELECT DISTINCT dept FROM emp")
        assert sorted(r.rows) == [("eng",), ("hr",), ("sales",)]

    def test_order_by_limit(self, db):
        r = db.query("SELECT id, salary FROM emp ORDER BY salary DESC LIMIT 5")
        top = sorted(db._rows, key=lambda x: -x[2])[:5]
        assert r.rows == [(x[0], x[2]) for x in top]

    def test_order_by_multiple_keys(self, db):
        r = db.query("SELECT dept, id FROM emp ORDER BY dept, id DESC")
        assert r.rows == sorted(
            [(x[1], x[0]) for x in db._rows], key=lambda p: (p[0], -p[1])
        )

    def test_in_and_like(self, db):
        r = db.query(
            "SELECT id FROM emp WHERE dept IN ('eng', 'hr') AND id < 10"
        )
        expected = [
            (x[0],) for x in db._rows if x[1] in ("eng", "hr") and x[0] < 10
        ]
        assert sorted(r.rows) == sorted(expected)

    def test_between(self, db):
        r = db.query("SELECT COUNT(*) AS n FROM emp WHERE id BETWEEN 10 AND 19")
        assert r.rows == [(10,)]

    def test_is_null(self, db):
        r = db.query("SELECT COUNT(*) AS n FROM emp WHERE boss IS NULL")
        assert r.rows == [(10,)]

    def test_computed_projection(self, db):
        r = db.query("SELECT id, salary * 1.1 AS raised FROM emp WHERE id = 0")
        assert r.rows[0][1] == pytest.approx(db._rows[0][2] * 1.1)

    def test_count_distinct(self, db):
        r = db.query("SELECT COUNT(DISTINCT dept) AS n FROM emp")
        assert r.rows == [(3,)]

    def test_empty_result(self, db):
        r = db.query("SELECT id FROM emp WHERE id = -1")
        assert r.rows == []

    def test_result_columns(self, db):
        r = db.query("SELECT id AS x, dept FROM emp LIMIT 1")
        assert r.columns == ["x", "dept"]
        assert r.rows[0][0] == 0


class TestExplainAndMetrics:
    def test_explain_statement(self, db):
        r = db.execute("EXPLAIN SELECT * FROM emp WHERE id = 1")
        text = "\n".join(row[0] for row in r.rows)
        assert "IndexScan" in text or "SeqScan" in text

    def test_explain_method(self, db):
        text = db.explain("SELECT e.id FROM emp e, dept d WHERE e.dept = d.name")
        assert "Join" in text
        assert "rows≈" in text

    def test_query_metrics_populated(self, db):
        r = db.query("SELECT COUNT(*) AS n FROM emp")
        assert r.io is not None
        assert r.exec_metrics is not None
        assert r.planning_seconds >= 0
        assert r.rowcount == 1

    def test_cold_run_pays_io(self, db):
        plan = db.plan("SELECT COUNT(*) AS n FROM emp")
        r = db.run_plan(plan, cold=True)
        assert r.io.reads >= db.table("emp").num_pages

    def test_actual_rows_annotated(self, db):
        plan = db.plan("SELECT id FROM emp WHERE salary > 99000")
        r = db.run_plan(plan)
        assert plan.actual_rows == len(r.rows)


class TestStrategyEquivalence:
    QUERIES = [
        "SELECT e.id, d.budget FROM emp e, dept d WHERE e.dept = d.name "
        "AND e.salary > 90000",
        "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept",
        "SELECT a.id FROM emp a, emp b WHERE a.boss = b.id AND b.dept = 'eng'",
        "SELECT id FROM emp WHERE id BETWEEN 5 AND 25 ORDER BY id DESC",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_all_strategies_agree(self, db, sql):
        reference = None
        for strategy in STRATEGIES:
            db.options = PlannerOptions(strategy=strategy)
            rows = sorted(db.query(sql).rows, key=repr)
            if reference is None:
                reference = rows
            else:
                assert rows == reference, strategy

    def test_interesting_orders_toggle_agrees(self, db):
        sql = "SELECT id FROM emp ORDER BY id"
        db.options = PlannerOptions(strategy="dp", use_interesting_orders=True)
        a = db.query(sql).rows
        db.options = PlannerOptions(strategy="dp", use_interesting_orders=False)
        b = db.query(sql).rows
        assert a == b


class TestErrors:
    def test_query_requires_select(self, db):
        with pytest.raises(EngineError):
            db.query("CREATE TABLE x (a INT)")

    def test_plan_requires_select(self, db):
        with pytest.raises(EngineError):
            db.plan("ANALYZE emp")

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            PlannerOptions(strategy="quantum")
