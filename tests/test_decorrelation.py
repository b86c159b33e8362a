"""Tests for correlated-subquery decorrelation (semi-join rewrite)."""

import random

import pytest

from repro import Database
from repro.engine import EngineError


@pytest.fixture
def db():
    db = Database(buffer_pages=64, work_mem_pages=8)
    db.execute("CREATE TABLE emp (id INT PRIMARY KEY, dept INT, salary FLOAT)")
    db.execute("CREATE TABLE bonus (emp_id INT, year INT, amount FLOAT)")
    rng = random.Random(44)
    emp = [(i, i % 5, 1000.0 * rng.randrange(1, 11)) for i in range(60)]
    bonus = [
        (rng.randrange(60), 2020 + rng.randrange(3), 100.0 * rng.randrange(50))
        for _ in range(150)
    ]
    db.insert_rows("emp", emp)
    db.insert_rows("bonus", bonus)
    db.execute("ANALYZE")
    db._emp, db._bonus = emp, bonus
    return db


class TestCorrelatedExists:
    def test_basic(self, db):
        r = db.query(
            "SELECT e.id FROM emp e WHERE EXISTS "
            "(SELECT b.amount FROM bonus b WHERE b.emp_id = e.id)"
        )
        want = sorted({b[0] for b in db._bonus})
        assert sorted(x[0] for x in r.rows) == want

    def test_with_inner_filter(self, db):
        r = db.query(
            "SELECT e.id FROM emp e WHERE EXISTS "
            "(SELECT b.amount FROM bonus b WHERE b.emp_id = e.id "
            "AND b.year = 2021)"
        )
        want = sorted({b[0] for b in db._bonus if b[1] == 2021})
        assert sorted(x[0] for x in r.rows) == want

    def test_no_duplicate_outer_rows(self, db):
        """Semi-join semantics: one output row per outer row regardless of
        how many inner matches exist."""
        r = db.query(
            "SELECT e.id FROM emp e WHERE EXISTS "
            "(SELECT b.year FROM bonus b WHERE b.emp_id = e.id)"
        )
        ids = [x[0] for x in r.rows]
        assert len(ids) == len(set(ids))

    def test_combined_with_outer_filters(self, db):
        r = db.query(
            "SELECT e.id FROM emp e WHERE e.dept = 2 AND EXISTS "
            "(SELECT b.year FROM bonus b WHERE b.emp_id = e.id)"
        )
        with_bonus = {b[0] for b in db._bonus}
        want = sorted(
            e[0] for e in db._emp if e[1] == 2 and e[0] in with_bonus
        )
        assert sorted(x[0] for x in r.rows) == want

    def test_multiple_correlation_links(self, db):
        db.execute("CREATE TABLE ref (a INT, b INT)")
        db.insert_rows("ref", [(i % 5, i % 3) for i in range(30)])
        r = db.query(
            "SELECT e.id FROM emp e WHERE EXISTS "
            "(SELECT r.a FROM ref r WHERE r.a = e.dept AND r.b = e.dept)"
        )
        valid = {(a, b) for a, b in [(i % 5, i % 3) for i in range(30)]}
        want = sorted(
            e[0] for e in db._emp if (e[1], e[1]) in valid
        )
        assert sorted(x[0] for x in r.rows) == want


class TestCorrelatedIn:
    def test_basic(self, db):
        r = db.query(
            "SELECT e.id FROM emp e WHERE e.salary IN "
            "(SELECT b.amount FROM bonus b WHERE b.emp_id = e.id)"
        )
        want = sorted(
            e[0]
            for e in db._emp
            if any(b[0] == e[0] and b[2] == e[2] for b in db._bonus)
        )
        assert sorted(x[0] for x in r.rows) == want

    def test_against_join_rewrite(self, db):
        got = db.query(
            "SELECT e.id FROM emp e WHERE e.dept IN "
            "(SELECT b.year - 2020 FROM bonus b WHERE b.emp_id = e.id)"
        ).rows
        want = sorted(
            e[0]
            for e in db._emp
            if any(b[0] == e[0] and b[1] - 2020 == e[1] for b in db._bonus)
        )
        assert sorted(x[0] for x in got) == want


class TestUnsupportedShapesFallBack:
    def test_correlated_aggregate_rejected(self, db):
        with pytest.raises(EngineError):
            db.query(
                "SELECT e.id FROM emp e WHERE e.salary > "
                "(SELECT AVG(b.amount) AS a FROM bonus b WHERE b.emp_id = e.id)"
            )

    def test_not_exists_correlated_rejected(self, db):
        with pytest.raises(EngineError):
            db.query(
                "SELECT e.id FROM emp e WHERE NOT EXISTS "
                "(SELECT b.year FROM bonus b WHERE b.emp_id = e.id)"
            )

    def test_non_equality_correlation_rejected(self, db):
        with pytest.raises(EngineError):
            db.query(
                "SELECT e.id FROM emp e WHERE EXISTS "
                "(SELECT b.year FROM bonus b WHERE b.amount > e.salary)"
            )

    def test_uncorrelated_still_uses_literal_path(self, db):
        # stays on the substitution path: no transient tables appear
        r = db.query(
            "SELECT COUNT(*) AS n FROM emp WHERE dept IN "
            "(SELECT emp_id FROM bonus WHERE year = 2020)"
        )
        assert r.rowcount == 1
        assert not any(
            t.name.startswith("__decorr") for t in db.catalog.tables()
        )


class TestHygiene:
    def test_transients_cleaned(self, db):
        db.query(
            "SELECT e.id FROM emp e WHERE EXISTS "
            "(SELECT b.year FROM bonus b WHERE b.emp_id = e.id)"
        )
        assert not any(
            t.name.startswith("__decorr") for t in db.catalog.tables()
        )

    def test_explain_shows_join(self, db):
        text = db.explain(
            "SELECT e.id FROM emp e WHERE EXISTS "
            "(SELECT b.year FROM bonus b WHERE b.emp_id = e.id)"
        )
        assert "Join" in text
