"""Plan-cache and result-cache behavior: hits, invalidation, bypass
rules, and the observability surface (metrics counters, query-log flags,
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
        # ObsConfig.off() disables the result cache; the plan cache is
        # not observability and keeps working
        db = Database(obs=ObsConfig.off())
        assert not db.obs.result_cache
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


class TestResultCache:
    def test_hit_skips_execution(self):
        db = make_db(result_cache=True)
        first = db.query(QUERY)
        rows0 = db.table("t").access.rows_read
        result = db.query(QUERY)
        assert result.rows == first.rows
        assert db.result_cache.stats.hits == 1
        assert db.table("t").access.rows_read == rows0  # no scan happened

    def test_invalidated_by_write_to_referenced_table(self):
        db = make_db(result_cache=True)
        first = db.query(QUERY)
        db.execute("INSERT INTO t VALUES (1000, 3)")
        result = db.query(QUERY)
        assert dict(result.rows)[3] == dict(first.rows)[3] + 1

    def test_unrelated_write_keeps_entry(self):
        db = make_db(result_cache=True)
        db.execute("CREATE TABLE u (id INT)")
        db.query(QUERY)
        db.execute("INSERT INTO u VALUES (1)")
        db.query(QUERY)
        assert db.result_cache.stats.hits == 1

    @pytest.mark.parametrize("dml", ["DELETE FROM t WHERE id = 0",
                                     "UPDATE t SET v = 5 WHERE id = 1"])
    def test_invalidated_by_delete_and_update(self, dml):
        db = make_db(result_cache=True)
        db.query(QUERY)
        db.execute(dml)
        db.query(QUERY)
        assert db.result_cache.stats.hits == 0

    def test_row_limit(self):
        db = make_db(result_cache=True, result_cache_max_rows=10)
        db.query("SELECT id FROM t")  # 500 rows: too big to cache
        db.query("SELECT id FROM t")
        assert db.result_cache.stats.hits == 0
        assert len(db.result_cache) == 0

    def test_off_by_default(self):
        db = make_db()
        db.query(QUERY)
        db.query(QUERY)
        assert len(db.result_cache) == 0


class TestCacheObservability:
    def test_metrics_counters(self):
        db = make_db(result_cache=True)
        for _ in range(3):
            db.query(QUERY)
        counters = db.metrics.snapshot()["counters"]
        assert counters["cache_result_hits_total"] == 2
        assert counters["cache_result_misses_total"] == 1
        assert counters["cache_plan_misses_total"] == 1
        db.execute("ANALYZE t")
        assert db.metrics.snapshot()["counters"]["cache_invalidations_total"] >= 2

    def test_querylog_flags(self):
        db = make_db(result_cache=True)
        for _ in range(3):
            db.query(QUERY)
        flags = [
            (r.plan_cache_hit, r.result_cache_hit)
            for r in db.query_log.entries()
            if r.sql == QUERY
        ]
        assert flags == [(False, False), (False, True), (False, True)]

    def test_sys_stat_statements_columns(self):
        db = make_db()
        for _ in range(4):
            db.query(QUERY)
        rows = db.query(
            "SELECT statement, calls, plan_cache_hits, result_cache_hits "
            "FROM sys_stat_statements"
        ).rows
        stats = {row[0]: row[1:] for row in rows}
        entry = next(v for k, v in stats.items() if "group by" in k)
        assert entry == (4, 3, 0)

    def test_result_cache_hit_skips_feedback_and_baselines(self):
        db = make_db(result_cache=True)
        db.query(QUERY)
        feedback0 = len(db.feedback)
        db.query(QUERY)  # result-cache hit: stale actuals must not leak
        assert len(db.feedback) == feedback0


class TestTransactionResultCache:
    """Transaction boundaries and the result cache: rolled-back writes
    must never invalidate (or poison) what other sessions see, and a
    session must never be served rows that hide its own pending writes."""

    def test_rolled_back_write_keeps_entry(self):
        db = make_db(result_cache=True)
        first = db.query(QUERY)
        s = db.create_session()
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (1000, 3)")
        s.execute("ROLLBACK")
        again = db.query(QUERY)
        assert db.result_cache.stats.hits == 1  # entry survived the abort
        assert again.rows == first.rows

    def test_own_pending_write_overlays_lookup(self):
        db = make_db(result_cache=True)
        db.query(QUERY)  # cached: v=3 -> 45
        s = db.create_session()
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (1000, 3)")
        mine = s.query(QUERY)
        assert dict(mine.rows)[3] == 46  # own write visible, not stale rows
        s.execute("ROLLBACK")
        other = db.query(QUERY)
        assert dict(other.rows)[3] == 45
        assert db.result_cache.stats.hits == 1  # original entry still valid

    def test_uncommitted_rows_never_stored_for_others(self):
        db = make_db(result_cache=True)
        s = db.create_session()
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (1000, 3)")
        mine = s.query(QUERY)
        assert dict(mine.rows)[3] == 46
        s.execute("ROLLBACK")
        other = db.query(QUERY)  # a hit here would serve aborted rows
        assert db.result_cache.stats.hits == 0
        assert dict(other.rows)[3] == 45

    def test_commit_invalidates_for_everyone(self):
        db = make_db(result_cache=True)
        db.query(QUERY)
        s = db.create_session()
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (1000, 3)")
        s.execute("COMMIT")
        result = db.query(QUERY)
        assert db.result_cache.stats.hits == 0
        assert dict(result.rows)[3] == 46


class TestSnapshotResultCache:
    """MVCC snapshots and the result cache: an entry is only valid for
    readers whose snapshot matches the commit timestamp it was built at.
    A transaction pinned on an old snapshot must never be served rows
    cached after later commits — and its snapshot-filtered rows must
    never be stored where fresher readers would find them."""

    def test_pinned_snapshot_not_served_newer_cached_rows(self):
        db = make_db(result_cache=True)
        s = db.create_session()
        s.execute("BEGIN")
        assert dict(s.query(QUERY).rows)[3] == 45  # pins the snapshot
        db.execute("INSERT INTO t VALUES (1000, 3)")  # commits past it
        db.query(QUERY)  # re-populates the cache with the fresh rows
        hits0 = db.result_cache.stats.hits
        mine = s.query(QUERY)  # stale snapshot: lookup must be bypassed
        assert dict(mine.rows)[3] == 45  # the pinned view, not the cache
        assert db.result_cache.stats.hits == hits0
        s.execute("COMMIT")
        assert dict(db.query(QUERY).rows)[3] == 46

    def test_stale_snapshot_rows_never_poison_cache(self):
        db = make_db(result_cache=True)
        s = db.create_session()
        s.execute("BEGIN")
        s.query(QUERY)  # pin at 45
        db.execute("INSERT INTO t VALUES (1000, 3)")  # invalidates entry
        mine = s.query(QUERY)  # recomputed under the old snapshot
        assert dict(mine.rows)[3] == 45
        # ...and must NOT have been stored: a fresh reader re-executes
        fresh = db.query(QUERY)
        assert db.result_cache.stats.hits == 0
        assert dict(fresh.rows)[3] == 46
        s.execute("ROLLBACK")

    def test_current_snapshot_still_hits(self):
        # no over-bypass: a pinned snapshot that *is* current (nothing
        # committed since) keeps full cache service
        db = make_db(result_cache=True)
        s = db.create_session()
        s.execute("BEGIN")
        first = s.query(QUERY)
        again = s.query(QUERY)
        assert again.rows == first.rows
        assert db.result_cache.stats.hits == 1
        s.execute("COMMIT")

    def test_autocommit_statement_snapshots_share_entries(self):
        # read-committed statement snapshots advance with every commit,
        # so successive autocommit SELECTs from different sessions all
        # sit at the current timestamp and share one entry
        db = make_db(result_cache=True)
        s1, s2 = db.create_session(), db.create_session()
        s1.query(QUERY)
        s2.query(QUERY)
        assert db.result_cache.stats.hits == 1
        s1.close()
        s2.close()
