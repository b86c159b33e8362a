"""System statistics through the engine's own SQL: the ``sys_stat_*``
virtual tables, wait-event accounting, and auto_explain capture.

The load-bearing property throughout: system tables are materialized
through the ordinary planner/executor path, so every SQL feature
(filters, joins, ORDER BY, aggregation, EXPLAIN) composes with them
with zero special cases — and the wait/access counters they expose
reconcile exactly with the storage layer's own statistics.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ObsConfig
from repro.obs import (
    SYSTEM_TABLE_NAMES,
    AutoExplain,
    AutoExplainConfig,
    WaitEventStats,
    normalize_statement,
    statement_fingerprint,
)
from repro.physical import PSeqScan, walk_plan


def _db(rows=200, **kwargs):
    db = Database(buffer_pages=64, work_mem_pages=8, **kwargs)
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b FLOAT)")
    db.insert_rows("t", [(i, float(i % 13)) for i in range(rows)])
    db.execute("ANALYZE t")
    return db


# -- the system tables compose with ordinary SQL -------------------------------


class TestSystemTableQueries:
    def test_every_system_table_is_selectable(self):
        db = _db()
        db.query("SELECT b FROM t WHERE a < 10")
        for name in SYSTEM_TABLE_NAMES:
            result = db.query(f"SELECT * FROM {name}")
            assert result.columns, name

    def test_stat_statements_aggregates_by_normalized_statement(self):
        db = _db()
        # three literal variants of one statement, one distinct statement
        for cutoff in (5, 50, 150):
            db.query(f"SELECT b FROM t WHERE a < {cutoff}")
        db.query("SELECT COUNT(*) AS n FROM t")
        r = db.query(
            "SELECT statement, calls, total_ms, mean_ms, p95_ms, rows "
            "FROM sys_stat_statements ORDER BY calls DESC"
        )
        assert r.rows[0][0] == "select b from t where a < ?"
        assert r.rows[0][1] == 3
        assert r.rows[0][2] > 0.0  # total_ms
        assert r.rows[0][2] == pytest.approx(r.rows[0][3] * 3)  # mean*calls
        assert r.rows[0][5] == 5 + 50 + 150  # rows across the three calls
        assert any(row[0] == "select count(*) as n from t" for row in r.rows)

    def test_stat_statements_worked_example_from_docs(self):
        db = _db()
        db.query("SELECT b FROM t WHERE a < 10")
        r = db.query(
            "SELECT * FROM sys_stat_statements ORDER BY total_ms DESC LIMIT 5"
        )
        assert len(r.rows) >= 1
        assert "total_ms" in r.columns and "statement" in r.columns

    def test_stat_tables_counts_scans_and_rows(self):
        # 2,000 rows: on the 200-row, 3-page table a vectorized scan
        # (2 pages + 0.5 CPU) prices under the primary-key probe (≈3)
        db = _db(rows=2000)
        db.query("SELECT b FROM t WHERE b < 100.0")  # seq scan, every row
        db.query("SELECT b FROM t WHERE a = 7")  # index scan on the pk
        r = db.query(
            "SELECT table_name, seq_scans, index_scans, rows_read "
            "FROM sys_stat_tables WHERE table_name = 't'"
        )
        assert len(r.rows) == 1
        _, seq_scans, index_scans, rows_read = r.rows[0]
        assert seq_scans >= 1
        assert index_scans >= 1
        assert rows_read >= 2000

    def test_a_cold_seq_scan_touches_every_page_once(self):
        # a pushed predicate prunes no page: on a cold pool the scan's
        # pages_hit + pages_read is the table's num_pages
        db = _db(rows=2000)
        stat = (
            "SELECT num_pages, pages_hit, pages_read FROM sys_stat_tables "
            "WHERE table_name = 't'"
        )
        ((_, hit0, read0),) = db.query(stat).rows
        db.pool.clear()
        result = db.query("SELECT COUNT(*) FROM t WHERE b < 1.0")
        assert any(isinstance(n, PSeqScan) for n in walk_plan(result.plan))
        ((pages, hit, read),) = db.query(stat).rows
        assert pages > 1
        assert (hit - hit0) + (read - read0) == pages

    def test_stat_tables_counts_dml_victim_searches(self):
        # a write-only table is not "never scanned": UPDATE/DELETE locate
        # their rows through the same scans a SELECT would use
        db = _db()
        db.execute("UPDATE t SET b = 0.0 WHERE a = 7")  # pk probe
        db.execute("DELETE FROM t WHERE a = 8")  # pk probe
        db.execute("UPDATE t SET b = 1.0 WHERE b < 100.0")  # not sargable
        db.execute("DELETE FROM t")  # no WHERE
        r = db.query(
            "SELECT seq_scans, index_scans FROM sys_stat_tables "
            "WHERE table_name = 't'"
        )
        assert r.rows == [(2, 2)]

    def test_stat_tables_hides_system_and_transient_tables(self):
        db = _db()
        r = db.query("SELECT table_name FROM sys_stat_tables")
        names = {row[0] for row in r.rows}
        assert names == {"t"}

    def test_stat_metrics_exposes_registry_instruments(self):
        db = _db()
        db.query("SELECT COUNT(*) AS n FROM t")
        r = db.query(
            "SELECT name, kind, value FROM sys_stat_metrics "
            "WHERE name = 'queries_total'"
        )
        assert r.rows == [("queries_total", "counter", 1.0)]
        r = db.query(
            "SELECT name FROM sys_stat_metrics WHERE kind = 'histogram'"
        )
        names = {row[0] for row in r.rows}
        assert "execution_ms.count" in names and "execution_ms.p95" in names

    def test_activity_shows_the_observing_statement_itself(self):
        db = _db()
        r = db.query("SELECT query_id, phase, sql FROM sys_stat_activity")
        # the snapshot is taken while the observing statement plans, so it
        # sees exactly one live statement: itself, still in 'planning'
        assert len(r.rows) == 1
        assert r.rows[0][1] == "planning"
        assert "sys_stat_activity" in r.rows[0][2]
        # and nothing is live once the statement finished
        assert len(db.activity) == 0

    def test_joins_and_order_by_compose(self):
        db = _db()
        db.query("SELECT b FROM t WHERE a < 10")
        r = db.query(
            "SELECT w.event, m.value FROM sys_stat_waits w, sys_stat_metrics m "
            "WHERE m.name = 'queries_total' ORDER BY w.event"
        )
        events = [row[0] for row in r.rows]
        assert events == sorted(events) and len(events) >= 1
        # self-join: one consistent snapshot on both sides
        r = db.query(
            "SELECT a.event FROM sys_stat_waits a JOIN sys_stat_waits b "
            "ON a.event = b.event"
        )
        assert len(r.rows) == len(events)

    def test_aggregation_over_system_table(self):
        db = _db()
        db.query("SELECT b FROM t WHERE a < 10")
        r = db.query(
            "SELECT wait_class, SUM(total_ms) AS ms FROM sys_stat_waits "
            "GROUP BY wait_class"
        )
        classes = {row[0] for row in r.rows}
        assert "exec" in classes

    def test_explain_prices_system_table_like_a_real_scan(self):
        db = _db()
        text = db.explain("SELECT * FROM sys_stat_waits ORDER BY total_ms DESC")
        assert "SeqScan(sys_stat_waits" in text

    def test_transients_are_dropped_after_the_statement(self):
        db = _db()
        db.query("SELECT * FROM sys_stat_waits")
        assert not db.catalog.has_table("sys_stat_waits")
        assert db.catalog.is_system_table("sys_stat_waits")

    def test_user_table_shadows_the_provider(self):
        db = _db()
        db.execute("CREATE TABLE sys_stat_waits (event TEXT, n INT)")
        db.execute("INSERT INTO sys_stat_waits VALUES ('mine', 1)")
        r = db.query("SELECT event, n FROM sys_stat_waits")
        assert r.rows == [("mine", 1)]
        assert not db.catalog.is_system_table("sys_stat_waits")
        # the user table survives the statement (it is not a transient)
        assert db.catalog.has_table("sys_stat_waits")

    def test_subquery_over_system_table(self):
        db = _db()
        db.query("SELECT b FROM t WHERE a < 10")
        r = db.query(
            "SELECT event FROM sys_stat_waits WHERE total_ms >= "
            "(SELECT MIN(total_ms) FROM sys_stat_waits)"
        )
        assert len(r.rows) >= 1

    def test_system_tables_report_zero_when_obs_off(self):
        db = _db(obs=ObsConfig.off())
        db.query("SELECT b FROM t WHERE a < 10")
        assert db.pool.waits is None
        r = db.query("SELECT * FROM sys_stat_waits")
        assert r.rows == []
        r = db.query("SELECT * FROM sys_stat_statements")
        assert r.rows == []  # query log disabled


# -- wait-event accounting ----------------------------------------------------


class TestWaitAccounting:
    def test_io_read_waits_reconcile_exactly_with_disk_reads(self):
        db = _db()
        db.pool.clear()
        before = db.waits.snapshot()
        result = db.query("SELECT b FROM t WHERE b < 100.0")
        count, seconds = db.waits.delta(before)["io.read"]
        assert result.io.reads > 0
        assert count == result.io.reads
        assert seconds > 0.0

    def test_io_read_waits_reconcile_with_explain_analyze_actuals(self):
        db = _db()
        db.pool.clear()
        before = db.waits.snapshot()
        result = db.execute("EXPLAIN ANALYZE SELECT b FROM t WHERE b < 100.0")
        delta = db.waits.delta(before)
        # the plan root's inclusive actual_reads is every page the
        # execution read — the same events the wait registry timed
        count, seconds = delta["io.read"]
        assert count == result.plan.actual_reads == result.io.reads
        assert seconds > 0.0

    def test_sql_aggregates_reconcile_with_engine_counters(self):
        """Every aggregate a ``sys_stat_*`` table serves through SQL
        equals the counter the engine keeps (the retired E16 table).
        The engine side is read before each probe: a system table is
        snapshotted at planning time, so the observing statement is not
        part of what it sees."""
        db = _db(rows=2000)
        db.pool.clear()

        def one(sql):
            return db.query(sql).rows[0][0]

        for _ in range(4):
            db.query("SELECT COUNT(*) AS n FROM t WHERE b > 3.0")
        assert one(
            "SELECT calls FROM sys_stat_statements "
            "WHERE statement = 'select count(*) as n from t where b > ?'"
        ) == 4
        reads = db.disk.stats.reads
        assert reads > 0
        assert one(
            "SELECT wait_count FROM sys_stat_waits WHERE event = 'io.read'"
        ) == reads
        rows_read = db.table("t").access.rows_read
        assert rows_read == 4 * 2000
        assert one(
            "SELECT rows_read FROM sys_stat_tables WHERE table_name = 't'"
        ) == rows_read
        queries = db.metrics.counter("queries_total").value
        assert one(
            "SELECT value FROM sys_stat_metrics WHERE name = 'queries_total'"
        ) == queries == 7

    def test_exec_cpu_recorded_per_user_query(self):
        db = _db()
        before = db.waits.count("exec.cpu")
        db.query("SELECT COUNT(*) AS n FROM t")
        assert db.waits.count("exec.cpu") == before + 1
        db.query("SELECT COUNT(*) AS n FROM t")
        assert db.waits.count("exec.cpu") == before + 2

    def test_wait_registry_round_trips_and_renders_rows(self):
        stats = WaitEventStats()
        stats.record("io.read", 0.25, count=5)
        stats.record("lock.buffer", 0.01)
        assert json.loads(json.dumps(stats.as_dict())) == {
            "io.read": {"count": 5, "seconds": 0.25},
            "lock.buffer": {"count": 1, "seconds": 0.01},
        }
        rows = stats.rows()
        assert [r[0] for r in rows] == ["io.read", "lock.buffer"]
        event, count, total_ms, mean_ms = rows[0]
        assert count == 5
        assert total_ms == pytest.approx(250.0)
        assert mean_ms == pytest.approx(50.0)

    def test_metrics_snapshot_carries_waits(self):
        db = _db()
        db.query("SELECT COUNT(*) AS n FROM t")
        snap = db.metrics_snapshot()
        assert "exec.cpu" in snap["waits"]
        json.dumps(snap)  # stays JSON-safe
        prom = db.metrics_snapshot(format="prom")
        assert "repro_wait_exec_cpu_seconds" in prom
        assert "repro_wait_exec_cpu_count" in prom


# -- auto_explain -------------------------------------------------------------


class TestAutoExplain:
    def test_disabled_by_default(self):
        db = _db()
        db.query("SELECT b FROM t WHERE a < 10")
        assert len(db.auto_explain) == 0

    def test_captures_exactly_statements_at_or_above_threshold(self):
        db = _db()
        db.auto_explain.configure(enabled=True, threshold_ms=0.0)
        db.query("SELECT b FROM t WHERE a < 10")
        assert len(db.auto_explain) == 1
        db.auto_explain.configure(threshold_ms=1e9)  # nothing is this slow
        db.query("SELECT b FROM t WHERE a < 20")
        assert len(db.auto_explain) == 1  # unchanged: below threshold
        entry = db.auto_explain.entries()[0]
        assert entry["sql"] == "SELECT b FROM t WHERE a < 10"
        assert entry["rows"] == 10
        assert "SeqScan" in entry["plan"] or "IndexScan" in entry["plan"]

    def test_capture_carries_per_node_timing_when_analyze(self):
        db = _db()
        db.auto_explain.configure(enabled=True, threshold_ms=0.0)
        db.query("SELECT b FROM t WHERE a < 10")
        entry = db.auto_explain.entries()[0]
        # FULL instrumentation was forced, so actuals include timing
        assert "actual" in entry["plan"]
        assert "ms" in entry["plan"]

    def test_internal_statements_are_not_captured(self):
        db = _db()
        db.auto_explain.configure(enabled=True, threshold_ms=0.0)
        db.execute("CREATE VIEW v AS SELECT a, b FROM t WHERE b < 3.0")
        db.query("SELECT COUNT(*) AS n FROM v")
        captured = [e["sql"] for e in db.auto_explain.entries()]
        # only the user-issued requests, not the view materialization
        assert captured == [
            "CREATE VIEW v AS SELECT a, b FROM t WHERE b < 3.0",
            "SELECT COUNT(*) AS n FROM v",
        ]
        assert "plan" not in db.auto_explain.entries()[0]

    def test_capture_counter_in_metrics(self):
        db = _db()
        db.auto_explain.configure(enabled=True, threshold_ms=0.0)
        db.query("SELECT b FROM t WHERE a < 10")
        snap = db.metrics_snapshot()
        assert snap["counters"]["slow_queries_captured_total"] == 1.0
        assert snap["auto_explain"]["captured_total"] == 1

    def test_ring_is_bounded(self):
        db = _db()
        db.auto_explain.configure(enabled=True, threshold_ms=0.0)
        runs = AutoExplain.CAPACITY + 3
        for i in range(runs):
            db.query(f"SELECT b FROM t WHERE a < {i + 1}")
        assert len(db.auto_explain) == AutoExplain.CAPACITY
        assert db.auto_explain.captured_total == runs

    def test_jsonl_persistence_and_compaction(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        db = _db(
            obs=ObsConfig(
                auto_explain=AutoExplainConfig(
                    enabled=True, threshold_ms=0.0, path=path
                )
            )
        )
        capacity = AutoExplain.CAPACITY
        for i in range(2 * capacity + 3):  # > 2x capacity: forces a compaction
            db.query(f"SELECT b FROM t WHERE a < {i + 1}")
        with open(path, encoding="utf-8") as handle:
            on_disk = [json.loads(line) for line in handle]
        assert 1 <= len(on_disk) <= 2 * capacity + 1  # bounded, never unbounded
        assert all("plan" in e and "sql" in e for e in on_disk)
        # the ring holds the most recent; the tail of the file agrees
        ring = db.auto_explain.entries()
        assert on_disk[-len(ring):] == ring

    def test_configure_rejects_unknown_options(self):
        db = _db()
        with pytest.raises(ValueError):
            db.auto_explain.configure(nonsense=True)

    def test_slow_queries_queryable_through_sql_metrics(self):
        db = _db()
        db.auto_explain.configure(enabled=True, threshold_ms=0.0)
        db.query("SELECT b FROM t WHERE a < 10")
        r = db.query(
            "SELECT value FROM sys_stat_metrics "
            "WHERE name = 'slow_queries_captured_total'"
        )
        assert r.rows == [(1.0,)]


# -- activity progress --------------------------------------------------------


class TestActivityProgress:
    def test_run_plan_updates_activity_entry(self):
        db = _db()
        entry = db.activity.begin("SELECT b FROM t")
        entry.phase = "executing"
        plan = db.plan("SELECT b FROM t")
        result = db.run_plan(plan, activity=entry)
        assert entry.rows_produced == result.rowcount == 200
        assert entry.current_operator != ""
        assert entry.elapsed_ms >= 0.0
        db.activity.finish(entry)
        assert len(db.activity) == 0


# -- one store per statement ----------------------------------------------------


def regroup(records):
    """``sys_stat_statements`` as it was once computed: the query-log
    ring regrouped by normalized statement, with p95 left out."""
    groups = {}
    for record in records:
        group = groups.setdefault(
            normalize_statement(record.sql), [[], 0, 0, 0, 0, 0, 0]
        )
        group[0].append(record.execution_ms)
        group[1] += record.actual_rows
        group[2] += record.buffer_hits
        group[3] += record.actual_reads
        group[4] += record.actual_writes
        group[5] += 1 if record.plan_changed else 0
        group[6] += 1 if record.plan_cache_hit else 0
    return {
        statement: (len(times), sum(times), sum(times) / len(times), *sums)
        for statement, (times, *sums) in groups.items()
    }


class TestOneStatementStore:
    def test_calls_are_cumulative_and_agree_with_statement_latency(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(300):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        shape = "insert into t values (?, ?)"
        calls = db.query(
            f"SELECT calls FROM sys_stat_statements WHERE statement = '{shape}'"
        ).rows
        fp = statement_fingerprint("INSERT INTO t VALUES (0, 0)")
        latency = db.metrics_snapshot()["statement_latency"][fp]
        assert calls == [(300,)] and latency["count"] == 300
        assert len(db.query_log) == 256  # the ring alone would undercount

    def test_the_store_is_bounded_and_reports_its_drops(self):
        db = Database()
        db.execute("CREATE TABLE u (a INT, b INT)")
        db.execute("INSERT INTO u VALUES (1, 2)")
        for i in range(200):  # 200 shapes: an alias is not a literal
            db.query(f"SELECT a AS c{i} FROM u")
        assert len(db.statements) == 128 and db.statements.dropped == 73
        assert db.statements.baselines() == 127
        snap = db.metrics_snapshot()
        assert len(snap["statement_latency"]) == 128
        assert snap["statement_latency_dropped"] == 73
        prom = db.metrics_snapshot(format="prom").splitlines()
        for line in (
            "repro_statement_latency_fingerprints 128",
            "repro_statement_latency_dropped 73",
            "repro_plan_baselines 127",
        ):
            assert line in prom
        rows = db.query("SELECT statement FROM sys_stat_statements").rows
        assert len(rows) == 128

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 40).map(lambda k: f"INSERT INTO h VALUES ({k}, {k % 7})"),
                st.integers(0, 40).map(lambda k: f"SELECT v FROM h WHERE k = {k}"),
                st.integers(0, 9).map(lambda v: f"SELECT COUNT(*) AS n FROM h WHERE v < {v}"),
                st.integers(0, 9).map(lambda v: f"UPDATE h SET v = {v} WHERE k = {v * 3}"),
                st.integers(0, 9).map(lambda v: f"DELETE FROM h WHERE v = {v}"),
                st.integers(0, 9).map(lambda v: f"EXPLAIN ANALYZE SELECT k FROM h WHERE v = {v}"),
                st.just("ANALYZE h"),
            ),
            max_size=60,
        )
    )
    def test_the_store_equals_the_regrouped_query_log(self, statements):
        """Below the 256-record ring, the store and a regroup of the query
        log are the same numbers (p95 aside: the store's is a bucket bound)."""
        db = Database()
        db.execute("CREATE TABLE h (k INT, v INT)")
        db.execute("CREATE INDEX hk ON h (k)")
        for sql in statements:
            db.execute(sql)
        expected = regroup(db.query_log.entries())
        rows = db.query("SELECT * FROM sys_stat_statements").rows
        got = {row[0]: row[1:4] + row[5:] for row in rows}
        assert got.keys() == expected.keys()
        for statement, (calls, total, mean, *sums) in expected.items():
            mine = got[statement]
            assert mine[0] == calls and list(mine[3:]) == sums
            assert mine[1:3] == pytest.approx((total, mean), rel=1e-12)
