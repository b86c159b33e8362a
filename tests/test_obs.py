"""Tests for the observability subsystem: metrics registry, span tracing,
query log, per-operator EXPLAIN ANALYZE actuals, and the Database wiring."""

import json

import pytest

from repro import Database, InstrumentLevel, ObsConfig, Span, Tracer
from repro.executor import ExecContext, run
from repro.obs import MetricsRegistry, plan_fingerprint, q_error


# -- metrics registry ----------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        assert reg.counter("c").value == 3.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_gauge_up_down(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(10)
        g.dec(3)
        g.inc(1)
        assert g.value == 8.0

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (0.2, 0.4, 3.0, 40.0, 9000.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 0.2 and snap["max"] == 9000.0
        assert snap["mean"] == pytest.approx(sum((0.2, 0.4, 3.0, 40.0, 9000.0)) / 5)
        assert snap["p50"] <= snap["p95"] <= snap["p99"]
        assert snap["p99"] == 9000.0  # overflow bucket reports the exact max

    def test_snapshot_shape_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(1)
        reg.histogram("c").observe(1.0)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        json.dumps(snap)  # JSON-safe
        assert reg.names() == ["a", "b", "c"]
        reg.reset()
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


# -- span tracing --------------------------------------------------------------


class TestTracer:
    def test_span_nesting_and_counters(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a") as sp:
                sp.add("n", 2)
                sp.add("n")
            with tracer.span("b"):
                pass
        root = tracer.root
        assert [c.name for c in root.children] == ["a", "b"]
        assert root.find("a").counters["n"] == 3.0

    def test_child_durations_bounded_by_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("step"):
                    sum(range(1000))
        for span in tracer.root.walk():
            assert span.child_time_ms() <= span.duration_ms + 1e-6

    def test_json_round_trip(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child") as sp:
                sp.add("k", 7)
        text = tracer.root.to_json()
        back = Span.from_json(text)
        assert back.to_dict() == tracer.root.to_dict()
        assert back.find("child").counters["k"] == 7.0

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("root") as sp:
            sp.add("whatever")
        assert tracer.root is None
        tracer.add("also-nothing")

    def test_second_top_level_span_attaches_to_root(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert tracer.root.name == "first"
        assert [c.name for c in tracer.root.children] == ["second"]


# -- query log helpers ---------------------------------------------------------


class TestQueryLogHelpers:
    def test_q_error_symmetric_and_floored(self):
        assert q_error(10, 100) == pytest.approx(10.0)
        assert q_error(100, 10) == pytest.approx(10.0)
        assert q_error(0.0, 0.0) == 1.0

    def test_fingerprint_ignores_literals(self):
        # 2,000 rows, so the range is an index scan and the bare select a
        # seq scan (at 200 rows a vectorized scan of 3 pages wins both)
        db = _small_db(rows=2000)
        # same plan shape, different constants → same fingerprint
        a = plan_fingerprint(db.plan("SELECT b FROM t WHERE a < 5"))
        b = plan_fingerprint(db.plan("SELECT b FROM t WHERE a < 8"))
        c = plan_fingerprint(db.plan("SELECT b FROM t"))
        assert a == b
        assert a != c


# -- database wiring -----------------------------------------------------------


def _small_db(rows=200, **kwargs):
    db = Database(buffer_pages=64, work_mem_pages=8, **kwargs)
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b FLOAT)")
    db.insert_rows("t", [(i, float(i % 13)) for i in range(rows)])
    db.execute("ANALYZE t")
    return db


def _join_db(**kwargs):
    """Three joinable tables sized to overflow a 3-page work memory."""
    db = Database(
        buffer_pages=48, work_mem_pages=3, page_size=512, **kwargs
    )
    db.execute("CREATE TABLE a (id INT PRIMARY KEY, x INT)")
    db.execute("CREATE TABLE b (id INT PRIMARY KEY, a_id INT, y INT)")
    db.execute("CREATE TABLE c (id INT PRIMARY KEY, b_id INT, z INT)")
    db.insert_rows("a", [(i, i % 7) for i in range(300)])
    db.insert_rows("b", [(i, i % 300, i % 11) for i in range(600)])
    db.insert_rows("c", [(i, i % 600, i % 13) for i in range(900)])
    db.execute("ANALYZE")
    return db


class TestExplainAnalyzeActuals:
    def test_three_way_join_with_spill_has_per_node_actuals(self):
        db = _join_db()
        r = db.execute(
            "EXPLAIN ANALYZE SELECT a.x, b.y, c.z FROM a, b, c "
            "WHERE a.id = b.a_id AND b.id = c.b_id AND c.z < 9 "
            "ORDER BY b.y"
        )
        lines = [row[0] for row in r.rows]
        plan_lines = [
            ln for ln in lines if "(actual" in ln
        ]
        assert len(plan_lines) >= 4  # sort + join(s) + scans
        for ln in plan_lines:
            assert "time=" in ln
            assert "rows=" in ln
            assert "loops=" in ln
            assert "q-err=" in ln
            assert "hits=" in ln or "reads=" in ln
        # the run spilled, and the footer reports both phases
        assert r.exec_metrics.spills > 0
        assert any(ln.startswith("planning:") for ln in lines)
        assert any(ln.startswith("execution:") for ln in lines)

    def test_actuals_attributed_inclusively(self):
        db = _join_db()
        r = db.execute(
            "EXPLAIN ANALYZE SELECT a.x, b.y FROM a, b "
            "WHERE a.id = b.a_id"
        )
        root = r.plan
        for node in _walk(root):
            assert node.actual_rows is not None
            assert node.actual_loops >= 1
            assert node.actual_time_ms is not None
            # inclusive timing: parent covers its children
            for child in node.children():
                assert child.actual_time_ms <= node.actual_time_ms + 1e-6

    def test_default_level_counts_rows_without_timing(self):
        db = _small_db()
        r = db.query("SELECT b FROM t WHERE a < 10")
        for node in _walk(r.plan):
            assert node.actual_rows is not None
            assert node.actual_time_ms is None  # FULL only under ANALYZE

    def test_level_off_leaves_plan_bare(self):
        # the level is an ExecContext matter, not a database setting
        db = _small_db()
        plan = db.plan("SELECT b FROM t WHERE a < 10")
        ctx = ExecContext(
            db.pool, db.work_mem_pages, instrument=InstrumentLevel.OFF
        )
        assert len(run(plan, ctx)) == 10
        for node in _walk(plan):
            assert node.actual_rows is None


def _walk(plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


class TestExplainRegression:
    def test_explain_populates_planning_metadata(self):
        db = _small_db()
        r = db.execute("EXPLAIN SELECT b FROM t WHERE a < 10")
        assert r.planning_seconds > 0.0
        assert r.planner_stats is not None
        assert r.plan is not None

    def test_explain_over_view_leaves_no_transients(self):
        db = _small_db()
        db.execute(
            "CREATE VIEW agg AS SELECT b, COUNT(*) AS n FROM t GROUP BY b"
        )
        db.execute("EXPLAIN SELECT n FROM agg WHERE n > 3")
        db.execute("EXPLAIN ANALYZE SELECT n FROM agg WHERE n > 3")
        db.plan("SELECT n FROM agg WHERE n > 3")
        assert db._live_transients == []
        assert not any(
            info.name.startswith("__view") for info in db.catalog.tables()
        )


class TestDatabaseObservability:
    def test_metrics_snapshot_nontrivial_after_workload(self):
        db = _small_db()
        for cutoff in (5, 50, 150):
            db.query(f"SELECT b FROM t WHERE a < {cutoff}")
        snap = db.metrics_snapshot()
        assert snap["counters"]["queries_total"] == 3.0
        assert snap["counters"]["rows_returned_total"] == 205.0
        assert snap["histograms"]["planning_ms"]["count"] == 3
        assert snap["histograms"]["execution_ms"]["count"] == 3
        assert snap["buffer_pool"]["hits"] > 0
        assert snap["disk"]["reads"] >= 0
        assert snap["query_log_entries"] == 3
        json.dumps(snap)  # JSON-safe end to end

    def test_query_log_records(self):
        db = _small_db()
        db.query("SELECT b FROM t WHERE a < 7")
        db.query("SELECT b FROM t WHERE a < 70")
        entries = db.query_log.entries()
        assert len(entries) == 2
        first = entries[0]
        assert first.sql == "SELECT b FROM t WHERE a < 7"
        assert first.actual_rows == 7
        assert first.q_error >= 1.0
        assert first.fingerprint == entries[1].fingerprint
        grouped = db.query_log.by_fingerprint()
        assert len(grouped[first.fingerprint]) == 2
        worst = db.query_log.worst_estimates(1)
        assert worst[0].q_error == max(e.q_error for e in entries)

    def test_trace_attached_and_last_trace(self):
        db = _small_db()
        r = db.query("SELECT b FROM t WHERE a < 10")
        assert r.trace is not None
        assert r.trace is db.last_trace
        names = [sp.name for sp in r.trace.walk()]
        for expected in (
            "query", "parse", "plan", "view_expansion", "decorrelation",
            "rewrite", "join_enumeration", "costing", "execute",
        ):
            assert expected in names, expected
        for span in r.trace.walk():
            assert span.child_time_ms() <= span.duration_ms + 1e-6

    def test_trace_round_trips_through_json(self):
        db = _small_db()
        r = db.query("SELECT COUNT(*) AS n FROM t")
        back = Span.from_json(r.trace.to_json())
        assert back.to_dict() == r.trace.to_dict()

    def test_obs_off_disables_everything(self):
        db = _small_db(obs=ObsConfig.off())
        r = db.query("SELECT b FROM t WHERE a < 10")
        assert r.rowcount == 10
        assert r.trace is None
        assert db.last_trace is None
        assert len(db.query_log) == 0
        snap = db.metrics_snapshot()
        assert snap["counters"] == {}
        # row counting stays on: the experiments rely on actual_rows
        assert r.plan.actual_rows == 10

    def test_trace_off_restores_baseline_results(self):
        on = _small_db()
        off = _small_db(obs=ObsConfig.off())
        sql = "SELECT b FROM t WHERE a < 25 ORDER BY b"
        assert on.query(sql).rows == off.query(sql).rows


# -- Prometheus text exposition ------------------------------------------------


_HELP_RE = r"^# HELP repro_[a-zA-Z_][a-zA-Z0-9_]* \S.*$"
_TYPE_RE = r"^# TYPE repro_[a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|histogram)$"
# a sample may carry any label set (histogram ``le``, the latency
# families' ``fingerprint``/``quantile``), comma-separated, sorted
_SAMPLE_RE = (
    r"^repro_[a-zA-Z_][a-zA-Z0-9_]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" (\+Inf|-Inf|-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$"
)


def _assert_strict_prom(text):
    """Every line is a HELP, TYPE, or sample line — nothing else."""
    import re

    assert text.endswith("\n")
    for line in text.rstrip("\n").splitlines():
        assert (
            re.match(_HELP_RE, line)
            or re.match(_TYPE_RE, line)
            or re.match(_SAMPLE_RE, line)
        ), f"malformed exposition line: {line!r}"


class TestPrometheusExposition:
    def test_every_family_has_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("queries_total").inc(3)
        registry.gauge("buffer_hit_ratio").set(0.5)
        registry.histogram("planning_ms").observe(1.0)
        text = registry.render_prometheus()
        for name, kind in (
            ("queries_total", "counter"),
            ("buffer_hit_ratio", "gauge"),
            ("planning_ms", "histogram"),
        ):
            assert f"# HELP repro_{name} " in text
            assert f"# TYPE repro_{name} {kind}\n" in text

    def test_strict_line_format(self):
        registry = MetricsRegistry()
        registry.counter("queries_total").inc()
        registry.histogram("execution_ms").observe(0.3)
        registry.gauge("buffer_hit_ratio").set(0.25)
        _assert_strict_prom(
            registry.render_prometheus(extras={"disk_reads": 4.0})
        )

    def test_deterministic_global_ordering(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        # create instruments in different orders: output must not care
        a.counter("zz_total").inc()
        a.histogram("aa_ms").observe(1.0)
        a.gauge("mm_ratio").set(0.5)
        b.gauge("mm_ratio").set(0.5)
        b.histogram("aa_ms").observe(1.0)
        b.counter("zz_total").inc()
        assert a.render_prometheus() == b.render_prometheus()
        families = [
            line.split()[2]
            for line in a.render_prometheus().splitlines()
            if line.startswith("# HELP ")
        ]
        assert families == sorted(families)

    def test_histogram_buckets_cumulative_ending_in_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("execution_ms")
        for value in (0.05, 0.2, 3.0, 9999.0):
            hist.observe(value)
        lines = registry.render_prometheus().splitlines()
        buckets = [ln for ln in lines if "_bucket{" in ln]
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in buckets]
        assert counts == sorted(counts)  # cumulative
        assert buckets[-1].startswith('repro_execution_ms_bucket{le="+Inf"}')
        assert counts[-1] == 4
        assert "repro_execution_ms_sum" in "\n".join(lines)
        assert "repro_execution_ms_count 4" in "\n".join(lines)

    def test_database_snapshot_includes_wait_and_stat_counters(self):
        db = _small_db()
        db.query("SELECT b FROM t WHERE a < 10")
        text = db.metrics_snapshot(format="prom")
        _assert_strict_prom(text)
        for needle in (
            "repro_wait_exec_cpu_count",
            "repro_wait_exec_cpu_seconds",
            "repro_wait_events_total",
            "repro_slow_query_captures 0",
            "repro_buffer_pool_hits",
            "repro_query_log_entries 1",
        ):
            assert needle in text, needle
        # the storage gauges are the JSON snapshot's sections flattened:
        # the family names are pinned, and the nullable one stays JSON-only
        families = {
            line.split()[2][len("repro_"):]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        }
        assert {
            name
            for name in families
            if name.startswith(("buffer_pool_", "disk_", "mvcc_"))
        } == {
            "buffer_pool_hits",
            "buffer_pool_misses",
            "buffer_pool_evictions",
            "buffer_pool_dirty_writebacks",
            "buffer_pool_hit_rate",
            "disk_reads",
            "disk_writes",
            "disk_seq_reads",
            "disk_allocations",
            "mvcc_last_commit_ts",
            "mvcc_active_snapshots",
            "mvcc_live_versions",
            "mvcc_versions_recorded",
            "mvcc_versions_pruned",
            "mvcc_snapshots_taken",
        }
        assert "oldest_snapshot_ts" in db.metrics_snapshot()["mvcc"]

    def test_database_snapshot_is_byte_stable(self):
        db = _small_db()
        db.query("SELECT b FROM t WHERE a < 10")
        assert db.metrics_snapshot(format="prom") == db.metrics_snapshot(
            format="prom"
        )


# -- query-log record serialization -------------------------------------------


class TestQueryLogRoundTrip:
    def _record(self, **overrides):
        from repro.obs import QueryLogRecord

        values = dict(
            sql="SELECT 1 FROM t",
            fingerprint="abc123",
            est_rows=10.0,
            actual_rows=12,
            q_error=1.2,
            est_cost=42.5,
            actual_reads=7,
            actual_writes=1,
            planning_ms=0.8,
            execution_ms=3.1,
            spills=2,
            temp_files=3,
            plan_changed=True,
            baseline_cost_delta=-5.5,
            buffer_hits=19,
        )
        values.update(overrides)
        return QueryLogRecord(**values)

    def test_every_dataclass_field_serializes(self):
        from dataclasses import fields

        from repro.obs import QueryLogRecord

        record = self._record()
        data = record.as_dict()
        # a field added to the dataclass but missing from the dict would
        # silently drop data — enumerate fields() so it fails loudly
        assert set(data) == {f.name for f in fields(QueryLogRecord)}
        for name in ("plan_changed", "baseline_cost_delta", "buffer_hits"):
            assert name in data

    def test_record_round_trips_through_dict_and_json(self):
        from repro.obs import QueryLogRecord

        record = self._record()
        assert QueryLogRecord.from_dict(record.as_dict()) == record
        assert (
            QueryLogRecord.from_dict(json.loads(json.dumps(record.as_dict())))
            == record
        )

    def test_from_dict_rejects_unknown_keys(self):
        from repro.obs import QueryLogRecord

        data = self._record().as_dict()
        data["bogus_field"] = 1
        with pytest.raises(ValueError, match="bogus_field"):
            QueryLogRecord.from_dict(data)

    def test_retired_parallel_workers_key_is_dropped(self):
        """Logs written while the exchange layer existed carry a
        ``parallel_workers`` key, and logs written while the result cache
        existed a ``result_cache_hit`` key; they load, and the keys are
        gone."""
        from repro.obs import QueryLogRecord

        record = self._record()
        for retired in (
            {"parallel_workers": 4},
            {"result_cache_hit": True},
            {"parallel_workers": 4, "result_cache_hit": False},
        ):
            data = dict(record.as_dict(), **retired)
            assert QueryLogRecord.from_dict(data) == record

    def test_retired_key_does_not_excuse_other_unknown_keys(self):
        from repro.obs import QueryLogRecord

        data = dict(self._record().as_dict(), parallel_workers=4, bogus=1)
        with pytest.raises(ValueError, match=r"\['bogus'\]"):
            QueryLogRecord.from_dict(data)

    def test_older_logs_without_new_fields_still_load(self):
        from repro.obs import QueryLogRecord

        data = self._record().as_dict()
        # a log persisted before PR 5/6 lacks the newer fields
        for name in ("plan_changed", "baseline_cost_delta", "buffer_hits"):
            del data[name]
        record = QueryLogRecord.from_dict(data)
        assert record.plan_changed is False
        assert record.baseline_cost_delta == 0.0
        assert record.buffer_hits == 0

    def test_query_log_round_trips_through_json(self):
        from repro.obs import QueryLog

        log = QueryLog(capacity=8)
        log.record(self._record())
        log.record(self._record(sql="SELECT 2 FROM t", plan_changed=False))
        back = QueryLog.from_json(log.to_json())
        assert back.entries() == log.entries()
        assert back.entries()[0].baseline_cost_delta == -5.5

    def test_database_populates_buffer_hits(self):
        db = _small_db()
        db.query("SELECT b FROM t WHERE a < 50")  # warms the pool
        db.query("SELECT b FROM t WHERE a < 50")
        entries = db.query_log.entries()
        assert entries[-1].buffer_hits > 0
        # and the whole live log survives a JSON round-trip
        from repro.obs import QueryLog

        assert QueryLog.from_json(db.query_log.to_json()).entries() == entries
