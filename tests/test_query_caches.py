"""Plan-cache behavior: hits, invalidation, bypass rules, and the
observability surface (metrics counters, query-log flags,
``sys_stat_statements`` columns)."""

import pytest

from repro import Database
from repro.obs import ObsConfig
from repro.physical import walk_plan


def make_db(**obs_kwargs) -> Database:
    db = Database(buffer_pages=64, obs=ObsConfig(**obs_kwargs))
    db.execute("CREATE TABLE t (id INT, v INT)")
    db.insert_rows("t", [(i, i % 10) for i in range(500)])
    db.execute("ANALYZE t")
    return db


QUERY = "SELECT v, COUNT(*) FROM t WHERE id > 50 GROUP BY v"


class TestPlanCache:
    def test_repeated_statement_hits(self):
        db = make_db()
        first = db.query(QUERY)
        for _ in range(9):
            result = db.query(QUERY)
            assert result.rows == first.rows
        assert db.plan_cache.stats.misses == 1
        assert db.plan_cache.stats.hits == 9
        assert db.plan_cache.stats.hit_rate == pytest.approx(0.9)

    def test_hit_binds_new_literals(self):
        # one statement shape, planned once: a different literal hits and
        # the plan runs with the new value bound in
        db = make_db()
        a = db.query("SELECT COUNT(*) FROM t WHERE id > 50")
        b = db.query("SELECT COUNT(*) FROM t WHERE id > 60")
        assert (db.plan_cache.stats.hits, db.plan_cache.stats.misses) == (1, 1)
        assert (a.rows, b.rows) == ([(449,)], [(439,)])
        assert "60" in b.plan.pretty() and "50" not in b.plan.pretty()
        # whitespace and keyword case are not part of the shape either
        c = db.query("select COUNT(*)  from t where id > 70")
        assert db.plan_cache.stats.hits == 2 and c.rows == [(429,)]

    def test_literal_type_is_part_of_the_shape(self):
        db = make_db()
        db.query("SELECT COUNT(*) FROM t WHERE id > 50")
        db.query("SELECT COUNT(*) FROM t WHERE id > 50.5")
        assert db.plan_cache.stats.hits == 0 and db.plan_cache.shapes == 2

    def test_select_list_literals_stay_in_the_shape(self):
        # output columns are named after the select list's text, so its
        # literals are not lifted
        db = make_db()
        a = db.query("SELECT v + 1 FROM t WHERE id = 3")
        b = db.query("SELECT v + 2 FROM t WHERE id = 3")
        assert db.plan_cache.stats.hits == 0
        assert (a.columns, a.rows) == (["(v + 1)"], [(4,)])
        assert (b.columns, b.rows) == (["(v + 2)"], [(5,)])

    def test_cached_plan_refreshes_actuals(self):
        db = make_db()
        first = db.query(QUERY)
        db.execute("INSERT INTO t VALUES (1000, 3)")
        result = db.query(QUERY)
        assert db.plan_cache.stats.hits == 1  # DML keeps plans
        assert dict(result.rows)[3] == 46  # ...but rows re-read the heap
        assert result.plan.actual_rows == len(result.rows)
        # each execution binds its own copy of the cached plan: the two
        # results' plans are distinct objects with their own actuals
        assert result.plan is not first.plan
        scans = [list(walk_plan(r.plan))[-1] for r in (first, result)]
        assert [scan.actual_rows for scan in scans] == [449, 450]

    def test_results_do_not_share_plan_actuals(self):
        # regression: two results of one cached text used to share one
        # PhysicalPlan, and the second run overwrote the first's actuals
        db = make_db()
        q = "SELECT id FROM t WHERE id < 50"
        r1 = db.query(q)
        db.execute("DELETE FROM t WHERE id < 40")
        r2 = db.query(q)
        assert db.plan_cache.stats.hits >= 1
        assert r1.plan is not r2.plan
        assert (r1.rowcount, r1.plan.actual_rows) == (50, 50)
        assert (r2.rowcount, r2.plan.actual_rows) == (10, 10)

    @pytest.mark.parametrize(
        "ddl",
        [
            "CREATE TABLE other (id INT)",
            "CREATE INDEX iv ON t (v)",
            "ANALYZE t",
            "CREATE VIEW w AS SELECT id FROM t",
        ],
    )
    def test_invalidated_by_ddl(self, ddl):
        db = make_db()
        db.query(QUERY)
        assert len(db.plan_cache) == 1
        db.execute(ddl)
        assert len(db.plan_cache) == 0
        assert db.plan_cache.stats.invalidations == 1

    def test_invalidated_by_strategy_switch(self):
        db = make_db()
        db.query(QUERY)
        db.set_strategy("greedy")
        assert len(db.plan_cache) == 0
        # ...and plans cached under the new options miss after a direct
        # options swap too (the entry records the options it was built
        # under)
        db.query(QUERY)
        from repro.optimizer import PlannerOptions

        db.options = PlannerOptions(strategy="syntactic")
        db.query(QUERY)
        assert db.plan_cache.stats.hits == 0

    def test_explain_analyze_bypasses(self):
        db = make_db()
        db.query(QUERY)
        before = (db.plan_cache.stats.hits, db.plan_cache.stats.misses)
        db.execute("EXPLAIN ANALYZE " + QUERY)
        assert (db.plan_cache.stats.hits, db.plan_cache.stats.misses) == before

    def test_subqueries_never_cached(self):
        db = make_db()
        sub = "SELECT COUNT(*) FROM t WHERE v = (SELECT MIN(v) FROM t)"
        db.query(sub)
        db.query(sub)
        assert len(db.plan_cache) == 0

    def test_disabled_by_config(self):
        db = make_db(plan_cache_size=0)
        db.query(QUERY)
        db.query(QUERY)
        assert len(db.plan_cache) == 0
        assert db.plan_cache.stats.hits == 0

    def test_off_config_disables(self):
        # the plan cache is not observability and keeps working
        db = Database(obs=ObsConfig.off())
        db.execute("CREATE TABLE t (id INT)")
        db.query("SELECT id FROM t WHERE id = 1")
        db.query("SELECT id FROM t WHERE id = 2")
        assert db.plan_cache.stats.hits == 1

    def test_lru_bound(self):
        # the bound is over plan variants; the literals of one shape share
        # a variant, and the least recently used shape goes first
        db = make_db(plan_cache_size=4)
        shapes = [
            "SELECT COUNT(*) FROM t",
            "SELECT MIN(id) FROM t",
            "SELECT MAX(id) FROM t",
            "SELECT SUM(v) FROM t",
            "SELECT v FROM t WHERE id = 3",
            "SELECT v FROM t WHERE id = 4",
            "SELECT id, v FROM t WHERE v < 2",
        ]
        for sql in shapes:
            db.query(sql)
        assert len(db.plan_cache) == 4 and db.plan_cache.shapes == 4
        assert db.plan_cache.stats.hits == 1  # id = 4 bound id = 3's plan
        hits = db.plan_cache.stats.hits
        db.query(shapes[3])  # among the four most recent: still cached
        db.query(shapes[0])  # the oldest: evicted
        assert db.plan_cache.stats.hits == hits + 1

    def test_lru_bound_counts_variants_of_one_shape(self):
        db = make_db(plan_cache_size=2)
        for low in (499, 250, 0):  # three selectivity buckets, one shape
            db.query(f"SELECT COUNT(*) FROM t WHERE id > {low}")
        assert db.plan_cache.shapes == 1 and len(db.plan_cache) == 2
        assert db.plan_cache.stats.replans == 2

    def test_near_zero_planning_on_hit(self):
        db = make_db()
        cold = db.query(QUERY).planning_seconds
        warm = min(db.query(QUERY).planning_seconds for _ in range(5))
        assert warm < cold


class TestCacheObservability:
    def test_metrics_counters(self):
        db = make_db()
        for _ in range(3):
            db.query(QUERY)
        counters = db.metrics.snapshot()["counters"]
        assert counters["cache_plan_hits_total"] == 2
        assert counters["cache_plan_misses_total"] == 1
        db.execute("ANALYZE t")
        assert db.metrics.snapshot()["counters"]["cache_invalidations_total"] >= 1

    def test_querylog_flags(self):
        db = make_db()
        for _ in range(3):
            db.query(QUERY)
        flags = [
            r.plan_cache_hit for r in db.query_log.entries() if r.sql == QUERY
        ]
        assert flags == [False, True, True]

    def test_sys_stat_statements_columns(self):
        db = make_db()
        for _ in range(4):
            db.query(QUERY)
        rows = db.query(
            "SELECT statement, calls, plan_cache_hits "
            "FROM sys_stat_statements"
        ).rows
        stats = {row[0]: row[1:] for row in rows}
        entry = next(v for k, v in stats.items() if "group by" in k)
        assert entry == (4, 3)
