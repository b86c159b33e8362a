"""Optimizer observability: search traces, plan baselines/diffs, the
feedback store, q-error edge cases, and the Prometheus exporter."""

import json
import math

import pytest

from repro import Database
from repro.obs import (
    FeedbackStore,
    MetricsRegistry,
    SearchTrace,
    StatementStore,
    feedback_key,
    normalize_statement,
    normalized_predicate,
    plan_diff,
    scan_key,
    statement_fingerprint,
)
from repro.obs.querylog import q_error


@pytest.fixture()
def db():
    db = Database(buffer_pages=64, work_mem_pages=8)
    db.execute("CREATE TABLE a (id INT PRIMARY KEY, bid INT, v INT)")
    db.execute("CREATE TABLE b (id INT PRIMARY KEY, cid INT)")
    db.execute("CREATE TABLE c (id INT PRIMARY KEY, w INT)")
    for i in range(200):
        db.execute(
            f"INSERT INTO a VALUES ({i}, {i % 40}, {i % 7})"
        )
    for i in range(40):
        db.execute(f"INSERT INTO b VALUES ({i}, {i % 10})")
    for i in range(10):
        db.execute(f"INSERT INTO c VALUES ({i}, {i * 3})")
    db.execute("ANALYZE")
    return db


THREE_WAY = (
    "SELECT a.id FROM a, b, c "
    "WHERE a.bid = b.id AND b.cid = c.id AND a.v = 3"
)


def explain_text(db, sql):
    """EXPLAIN emits one output row per line; join them back."""
    return "\n".join(row[0] for row in db.execute(sql).rows)


class TestSearchTrace:
    def test_explain_verbose_search_ranks_alternatives(self, db):
        text = explain_text(db, f"EXPLAIN (VERBOSE SEARCH) {THREE_WAY}")
        assert "Search:" in text
        assert "ranked alternatives" in text
        assert "access paths:" in text
        assert "<= chosen" in text
        # at least two ranked, costed alternatives for the full join set
        assert "  1. " in text and "  2. " in text
        assert text.count("cost=") >= 2
        # verbose adds the intermediate memo
        assert "memo (intermediate subsets):" in text

    def test_plain_explain_has_no_search_section(self, db):
        text = explain_text(db, f"EXPLAIN {THREE_WAY}")
        assert "Search:" not in text

    def test_last_search_populated(self, db):
        db.execute(f"EXPLAIN (SEARCH) {THREE_WAY}")
        trace = db.last_search
        assert trace is not None and len(trace) >= 1
        region = trace.regions[0]
        assert len(region.relations) == 3
        assert any(alt.kept for alt in region.alts)
        assert any(not alt.kept for alt in region.alts)

    def test_kept_and_pruned_reasons_recorded(self, db):
        db.execute(f"EXPLAIN (SEARCH) {THREE_WAY}")
        reasons = {a.reason for a in db.last_search.regions[0].alts}
        assert any("first plan" in r for r in reasons)
        assert any("dominated" in r for r in reasons)


class TestPlanBaselines:
    def test_same_plan_never_flags_change(self, db):
        sql = "SELECT a.id FROM a WHERE a.v = 3"
        for _ in range(3):
            db.query(sql)
        assert db.statements.baselines() == 1
        assert all(not r.plan_changed for r in db.query_log.entries())

    def test_literals_share_one_baseline(self, db):
        db.query("SELECT a.id FROM a WHERE a.v = 3")
        db.query("SELECT a.id FROM a WHERE a.v = 5")
        assert db.statements.baselines() == 1

    def test_store_emits_change_and_advances(self):
        store = StatementStore()
        fp = statement_fingerprint("SELECT 1")

        def run(plan_fp, cost, shape, ms):
            observed_fp, change = store.observe(
                "SELECT 1", ms, plan_fp=plan_fp, est_cost=cost, plan=shape
            )
            assert observed_fp == fp
            return change

        assert run("planA", 10.0, "A", 5.0) is None
        change = run("planB", 25.0, "B", 9.0)
        assert change is not None
        assert change.is_regression and change.cost_delta == pytest.approx(15.0)
        assert change.old_best_ms == 5.0
        # the new plan becomes the baseline: re-observing it is quiet
        assert run("planB", 25.0, "B", 9.0) is None
        improvement = run("planA", 10.0, "A", 4.0)
        assert improvement is not None and not improvement.is_regression
        assert store.baseline(fp) == ("A", 10.0)
        ((_, calls, *_rest, plan_changes, _hits),) = store.rows()
        assert (calls, plan_changes) == (4, 2)

    def test_explain_diff_without_baseline(self, db):
        text = explain_text(
            db, "EXPLAIN DIFF SELECT a.id FROM a WHERE a.v = 3"
        )
        assert "no stored baseline" in text

    def test_explain_diff_identical_after_run(self, db):
        sql = "SELECT a.id FROM a WHERE a.v = 3"
        db.query(sql)
        text = explain_text(db, f"EXPLAIN DIFF {sql}")
        assert "(plans are identical)" in text
        # read-only: the diff itself must not advance the baseline
        assert db.statements.baselines() == 1

    def test_normalize_statement(self):
        a = normalize_statement("SELECT x FROM t WHERE a = 5 AND s = 'hi'")
        b = normalize_statement(
            "select X  from T where A = 9   and S = 'it''s'"
        )
        assert a == b
        assert "?" in a and "5" not in a
        assert statement_fingerprint(
            "EXPLAIN ANALYZE SELECT x FROM t"
        ) == statement_fingerprint("SELECT x FROM t")
        # the fingerprint reads the text as the lexer does: a comment is
        # a blank, ``.5`` and ``1.`` are numbers, ``!=`` is ``<>``
        for one, other in [
            ("SELECT v FROM kv WHERE k = 5 -- hot key",
             "SELECT v FROM kv WHERE k = 6 -- cold key"),
            ("SELECT a FROM t WHERE x = .5", "SELECT a FROM t WHERE x = 0.25"),
            ("SELECT a FROM t WHERE x = 1.", "SELECT a FROM t WHERE x = 2.5"),
            ("SELECT a FROM t WHERE b != 1", "SELECT a FROM t WHERE b <> 1"),
        ]:
            assert normalize_statement(one) == normalize_statement(other)
            assert statement_fingerprint(one) == statement_fingerprint(other)


class TestPlanDiff:
    def test_diff_marks_added_and_removed_lines(self):
        out = plan_diff(
            "SeqScan(a)\n  Filter(x)", "IndexScan(a)\n  Filter(x)",
            old_cost=10.0, new_cost=4.0,
        )
        assert "- SeqScan(a)" in out
        assert "+ IndexScan(a)" in out
        assert "cost: 10.0 -> 4.0 (-6.0)" in out

    def test_identical_plans(self):
        out = plan_diff("SeqScan(a)", "SeqScan(a)")
        assert "(plans are identical)" in out


class TestFeedback:
    def test_keys_are_literal_free_and_order_insensitive(self, db):
        from repro.sql import parse_expression

        k1 = feedback_key(
            ["a AS a", "b AS b"],
            [parse_expression("a.v = 3"), parse_expression("a.bid = b.id")],
        )
        k2 = feedback_key(
            ["b AS b", "a AS a"],
            [parse_expression("a.bid = b.id"), parse_expression("a.v = 99")],
        )
        assert k1 == k2
        assert scan_key("a", "a", []) != k1
        pred = normalized_predicate(parse_expression("a.v = 3"))
        assert "3" not in pred and "?" in pred

    def test_store_learns(self):
        store = FeedbackStore()
        for _ in range(4):
            store.record("k1", estimated=10.0, actual=200.0)
        assert store.correction("k1") == pytest.approx(20.0)
        assert store.correction("unknown") == 1.0
        # clamped to the configured bound
        store.record("k2", estimated=1.0, actual=10_000.0)
        assert store.correction("k2") == 64.0

    def test_store_is_bounded_and_counts_what_it_drops(self):
        """Every SELECT is harvested while feedback is on (the default):
        distinct aliases make distinct keys, and the store stops at its
        cap instead of growing with the workload."""
        db = Database()
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        db.insert_rows("t", [(i, i % 10) for i in range(20)])
        cap = FeedbackStore.MAX_ENTRIES
        for i in range(cap + 40):
            db.query(f"SELECT v FROM t AS a{i} WHERE a{i}.v < 5")
        assert len(db.feedback) == cap
        assert db.feedback.dropped == 40
        # a key already learned keeps learning when the store is full
        before = {k: e.samples for k, e in db.feedback.entries().items()}
        db.query("SELECT v FROM t AS a0 WHERE a0.v < 5")
        after = {k: e.samples for k, e in db.feedback.entries().items()}
        assert after.keys() == before.keys()
        assert sum(after.values()) == sum(before.values()) + 1
        assert db.feedback.dropped == 40
        prom = db.metrics_snapshot(format="prom")
        assert "repro_feedback_entries 1024" in prom
        assert "repro_feedback_dropped 40" in prom

    def test_database_harvests_after_queries(self, db):
        db.query("SELECT a.id FROM a WHERE a.v = 3")
        assert len(db.feedback) >= 1
        keys = list(db.feedback.entries())
        assert all(len(k) == 16 for k in keys)

    def test_limit_queries_are_not_harvested(self, db):
        before = len(db.feedback)
        db.query("SELECT a.id FROM a WHERE a.v = 3 LIMIT 2")
        assert len(db.feedback) == before

    def test_feedback_corrects_estimate_not_result(self, db):
        from repro.optimizer import PlannerOptions

        sql = "SELECT a.id FROM a WHERE a.v = 3"
        cold = db.query(sql)
        db.options = PlannerOptions(use_feedback=True)
        warm = db.query(sql)
        db.options = PlannerOptions()
        assert sorted(warm.rows) == sorted(cold.rows)
        assert warm.plan.q_error() <= cold.plan.q_error()


class TestQErrorEdgeCases:
    def test_exact(self):
        assert q_error(50.0, 50.0) == 1.0

    def test_zero_counts_as_one_row(self):
        assert q_error(0.0, 0.0) == 1.0
        assert q_error(0.0, 10.0) == 10.0
        assert q_error(10.0, 0.0) == 10.0

    def test_non_finite_inputs(self):
        assert q_error(math.nan, 5.0) == math.inf
        assert q_error(5.0, math.inf) == math.inf
        assert q_error(math.inf, math.inf) == math.inf


class TestPrometheusExport:
    def test_render_format(self):
        registry = MetricsRegistry()
        registry.counter("queries_total").inc(3)
        registry.histogram("latency_ms").observe(5.0)
        registry.histogram("latency_ms").observe(5_000_000.0)
        text = registry.render_prometheus()
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_queries_total 3" in text
        assert '# TYPE repro_latency_ms histogram' in text
        assert 'repro_latency_ms_bucket{le="+Inf"} 2' in text
        assert "repro_latency_ms_count 2" in text
        assert text.endswith("\n")
        # buckets are cumulative: every count <= the +Inf count
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_latency_ms_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)

    def test_database_snapshot_prom(self, db):
        db.query("SELECT a.id FROM a WHERE a.v = 3")
        text = db.metrics_snapshot(format="prom")
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_buffer_pool_hit_rate" in text
        assert "repro_feedback_entries" in text

    def test_unknown_format_rejected(self, db):
        from repro.engine import EngineError

        with pytest.raises(EngineError):
            db.metrics_snapshot(format="xml")


class TestQueryLogPlanFields:
    def test_records_carry_plan_change_fields(self, db):
        db.query("SELECT a.id FROM a WHERE a.v = 3")
        record = db.query_log.entries()[-1]
        assert record.plan_changed is False
        assert record.baseline_cost_delta == 0.0
