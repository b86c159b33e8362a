"""Tests for selectivity/cardinality estimation against ground truth."""

import random

import pytest

from repro.algebra import build_plan, extract_join_graph, push_down_predicates, transform_join_regions
from repro.engine import Database
from repro.expr import (
    Between,
    InList,
    IsNull,
    Like,
    and_,
    col,
    eq,
    gt,
    lit,
    lt,
    or_,
)
from repro.optimizer import Estimator, EstimatorConfig, StatsResolver
from repro.sql import parse


@pytest.fixture(scope="module")
def db():
    db = Database(buffer_pages=200, work_mem_pages=8)
    db.execute(
        "CREATE TABLE t (id INT, uni INT, skew INT, txt TEXT, maybe INT)"
    )
    rng = random.Random(12)
    rows = []
    for i in range(4000):
        rows.append(
            (
                i,
                rng.randrange(100),
                0 if rng.random() < 0.5 else rng.randrange(1, 100),
                rng.choice(["alpha", "beta", "gamma"]) + str(rng.randrange(10)),
                None if rng.random() < 0.25 else rng.randrange(10),
            )
        )
    db.insert_rows("t", rows)
    db.execute("CREATE TABLE u (id INT, grp INT)")
    db.insert_rows("u", [(i, i % 10) for i in range(100)])
    db.analyze()
    return db


def estimator_for(db, sql, config=None):
    plan = push_down_predicates(build_plan(parse(sql), db.catalog))
    graphs = []
    transform_join_regions(plan, lambda r: graphs.append(extract_join_graph(r)) or r)
    graph = graphs[0]
    return Estimator(StatsResolver(graph), config), graph


def actual_fraction(db, where):
    total = db.query("SELECT COUNT(*) AS n FROM t").rows[0][0]
    hits = db.query(f"SELECT COUNT(*) AS n FROM t WHERE {where}").rows[0][0]
    return hits / total


def assert_close(est, actual, rel=0.35, abs_tol=0.02):
    assert est == pytest.approx(actual, rel=rel, abs=abs_tol), (est, actual)


class TestPointAndRange:
    def test_uniform_equality(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        sel = est.selectivity(eq(col("t.uni"), lit(7)))
        assert_close(sel, actual_fraction(db, "uni = 7"))

    def test_skewed_equality_with_mcv(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        sel = est.selectivity(eq(col("t.skew"), lit(0)))
        assert_close(sel, actual_fraction(db, "skew = 0"), rel=0.15)

    def test_skewed_equality_without_mcv_underestimates(self, db):
        config = EstimatorConfig(use_histograms=False, use_mcvs=False)
        est, _ = estimator_for(db, "SELECT * FROM t", config)
        sel = est.selectivity(eq(col("t.skew"), lit(0)))
        assert sel < 0.1  # 1/V(skew) ≈ 0.01, actual ≈ 0.5

    def test_range(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        sel = est.selectivity(lt(col("t.uni"), lit(30)))
        assert_close(sel, actual_fraction(db, "uni < 30"))

    def test_range_ge(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        sel = est.selectivity(gt(col("t.uni"), lit(89)))
        assert_close(sel, actual_fraction(db, "uni > 89"))

    def test_between(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        sel = est.selectivity(Between(col("t.uni"), lit(20), lit(39)))
        assert_close(sel, actual_fraction(db, "uni BETWEEN 20 AND 39"))

    def test_out_of_range_is_tiny(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        assert est.selectivity(gt(col("t.uni"), lit(1000))) < 0.02
        assert est.selectivity(lt(col("t.uni"), lit(-5))) < 0.02

    def test_ne(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        sel = est.selectivity(
            and_(lit(True), lit(True))
        )  # trivially true conjunct
        assert sel == 1.0


class TestSpecialPredicates:
    def test_null_fraction(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        sel = est.selectivity(IsNull(col("t.maybe")))
        assert_close(sel, actual_fraction(db, "maybe IS NULL"), rel=0.1)

    def test_not_null(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        sel = est.selectivity(IsNull(col("t.maybe"), negated=True))
        assert_close(sel, actual_fraction(db, "maybe IS NOT NULL"), rel=0.1)

    def test_in_list_sums(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        sel = est.selectivity(InList(col("t.uni"), (lit(1), lit(2), lit(3))))
        assert_close(sel, actual_fraction(db, "uni IN (1, 2, 3)"))

    def test_like_prefix(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        sel = est.selectivity(Like(col("t.txt"), "alpha%"))
        assert_close(
            sel, actual_fraction(db, "txt LIKE 'alpha%'"), rel=0.4, abs_tol=0.05
        )

    def test_and_multiplies(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        a = est.selectivity(lt(col("t.uni"), lit(50)))
        b = est.selectivity(eq(col("t.skew"), lit(0)))
        both = est.selectivity(
            and_(lt(col("t.uni"), lit(50)), eq(col("t.skew"), lit(0)))
        )
        assert both == pytest.approx(a * b, rel=1e-6)

    def test_or_inclusion_exclusion(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        a = est.selectivity(lt(col("t.uni"), lit(50)))
        b = est.selectivity(eq(col("t.uni"), lit(99)))
        either = est.selectivity(
            or_(lt(col("t.uni"), lit(50)), eq(col("t.uni"), lit(99)))
        )
        assert either == pytest.approx(a + b - a * b, rel=1e-6)

    def test_selectivity_clamped(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        s = est.selectivity(
            InList(col("t.uni"), tuple(lit(i) for i in range(100)))
        )
        assert 0.0 <= s <= 1.0


class TestJoins:
    def test_fk_join_cardinality(self, db):
        sql = "SELECT * FROM t, u WHERE t.maybe = u.grp"
        est, graph = estimator_for(db, sql)
        conj = graph.join_conjuncts_between({"t"}, {"u"})
        rows = 4000 * 100 * est.join_selectivity(conj)
        actual = db.query(
            "SELECT COUNT(*) AS n FROM t, u WHERE t.maybe = u.grp"
        ).rows[0][0]
        assert rows == pytest.approx(actual, rel=0.35)

    def test_cross_product(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t, u WHERE t.id = u.id")
        assert 10 * 20 * est.join_selectivity([]) == 200

    def test_matches_per_probe(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t, u WHERE t.maybe = u.grp")
        assert est.matches_per_probe("u.grp", 100) == pytest.approx(10.0)

    def test_distinct_values(self, db):
        est, _ = estimator_for(db, "SELECT * FROM t")
        assert est.resolver.resolve("t.uni").stats.num_distinct == 100
        assert est.resolver.resolve("t.unknown_col") is None


class TestScanRows:
    def test_scan_rows_with_filters(self, db):
        est, graph = estimator_for(
            db, "SELECT * FROM t WHERE uni < 10 AND skew = 0"
        )
        info = db.table("t")
        rows = est.scan_rows(info, graph.filter_conjuncts("t"))
        actual = db.query(
            "SELECT COUNT(*) AS n FROM t WHERE uni < 10 AND skew = 0"
        ).rows[0][0]
        # independence holds here, so this should be decent
        assert rows == pytest.approx(actual, rel=0.5)

    def test_unanalyzed_table_uses_defaults(self):
        db2 = Database(buffer_pages=32)
        db2.execute("CREATE TABLE fresh (x INT)")
        db2.insert_rows("fresh", [(i,) for i in range(100)])
        est, graph = estimator_for(db2, "SELECT * FROM fresh WHERE x = 5")
        sel = est.scan_selectivity(graph.filter_conjuncts("fresh"))
        assert sel == pytest.approx(0.1)  # the magic constant
