"""End-to-end request tracing: span identity, propagated trace contexts,
WAL/lock/MVCC spans, Chrome trace export,
latency histograms, and the sys_stat_traces/sys_stat_locks tables.

The acceptance bar this file holds the engine to: a statement executed
through the server yields ONE connected span tree — protocol decode →
lock wait → execution → wal.append → wal.fsync →
commit — exportable as structurally valid Chrome trace-event JSON, and
the number of ``wal.fsync`` spans reconciles exactly with the WAL
writer's ``fsyncs`` counter.
"""

import json

import pytest

from repro import Database
from repro.obs import (
    RequestTrace,
    Span,
    Tracer,
    activate_tracer,
    active_tracer,
    chrome_trace_events,
    export_chrome_trace,
    new_trace_id,
    trace_span,
    validate_chrome_trace,
)
from repro.server import Client, DatabaseServer


def assert_connected(root):
    """Every non-root span's parent_id resolves inside the tree, and the
    root is the only span without a parent."""
    ids = {s.span_id for s in root.walk()}
    for span in root.walk():
        if span is root:
            continue
        assert span.parent_id, f"span {span.name!r} has no parent_id"
        assert span.parent_id in ids, (
            f"orphan span {span.name!r}: parent {span.parent_id} "
            "not in tree"
        )
    assert len(ids) == sum(1 for _ in root.walk()), "duplicate span ids"


# -- span identity and serialization ------------------------------------------


class TestSpanIdentity:
    def test_span_ids_assigned_and_linked(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        root = tracer.root
        assert root.span_id == 1
        b, d = root.children
        assert b.parent_id == root.span_id
        assert d.parent_id == root.span_id
        assert b.children[0].parent_id == b.span_id
        assert_connected(root)

    def test_ids_survive_dict_round_trip(self):
        tracer = Tracer(trace_id="feedbeeffeedbeef")
        with tracer.span("root"):
            with tracer.span("child") as sp:
                sp.set_attr("table", "t")
                sp.add("wait_ms", 1.5)
        clone = Span.from_dict(tracer.root.to_dict())
        assert clone.span_id == tracer.root.span_id
        child = clone.children[0]
        assert child.parent_id == clone.span_id
        assert child.attrs == {"table": "t"}
        assert child.counters == {"wait_ms": 1.5}

    def test_merged_siblings_accumulate(self):
        tracer = Tracer()
        with tracer.span("root"):
            for _ in range(50):
                with tracer.span("wal.append", merge=True):
                    pass
        root = tracer.root
        appends = root.find_all("wal.append")
        assert len(appends) == 1
        assert appends[0].counters["count"] == 50.0

    def test_trace_id_generated_and_propagated(self):
        tracer = Tracer()
        assert len(tracer.trace_id) == 16
        explicit = Tracer(trace_id="cafe0000cafe0000")
        assert explicit.trace_id == "cafe0000cafe0000"
        assert new_trace_id() != new_trace_id()

    def test_thread_local_activation(self):
        assert active_tracer() is None
        tracer = Tracer()
        with activate_tracer(tracer):
            assert active_tracer() is tracer
            with tracer.span("outer"):
                with trace_span("inner") as sp:
                    sp.add("x", 2.0)
        assert active_tracer() is None
        assert tracer.root.find("inner").counters == {"x": 2.0}

    def test_trace_span_without_tracer_is_noop(self):
        with trace_span("orphan") as sp:
            sp.add("x")
            sp.set_attr("k", "v")  # must not raise

    def test_record_span_clamps_negative_start(self):
        tracer = Tracer()
        with tracer.span("request"):
            sp = tracer.record_span("protocol.decode", 1e6)
        assert sp.start_ms >= 0.0


# -- engine span trees ---------------------------------------------------------


@pytest.fixture()
def db():
    return Database()


class TestEngineSpans:
    def test_dml_trace_tree(self, db):
        db.execute("CREATE TABLE t (id INT, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        root = db.last_trace
        lock = root.find("lock.acquire")
        assert lock is not None
        assert lock.attrs["table"] == "t"
        assert lock.attrs["mode"] == "exclusive"
        execute = root.find("execute")
        assert execute.counters["rows_modified"] == 2.0
        assert root.find("txn.commit") is not None
        assert_connected(root)

    def test_update_delete_span_names_the_access_path(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        db.insert_rows("t", [(i, "x") for i in range(200)])
        db.execute("ANALYZE t")
        db.execute("UPDATE t SET v = 'y' WHERE id = 7")
        execute = db.last_trace.find("execute")
        assert execute.attrs["access_path"] == "pk_t_id"
        assert execute.counters["rows_modified"] == 1.0
        db.execute("DELETE FROM t WHERE v = 'y'")
        assert db.last_trace.find("execute").attrs["access_path"] == "seq"
        db.execute("INSERT INTO t VALUES (7, 'z')")
        assert db.last_trace.find("execute").attrs is None

    def test_select_has_mvcc_spans(self, db):
        db.execute("CREATE TABLE t (id INT)")
        db.insert_rows("t", [(i,) for i in range(10)])
        db.query("SELECT * FROM t")
        root = db.last_trace
        acquire = root.find("mvcc.acquire")
        assert acquire is not None
        assert acquire.attrs["scope"] == "statement"
        assert root.find("mvcc.release") is not None
        assert_connected(root)

    def test_explicit_txn_commit_traced(self, db):
        db.execute("CREATE TABLE t (id INT)")
        session = db.create_session()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1)")
        session.execute("COMMIT")
        root = db.last_trace
        commit = root.find("txn.commit")
        assert commit is not None
        assert commit.counters["txn_id"] > 0
        session.close()

    def test_checkpoint_phases_traced(self, tmp_path):
        db = Database(data_dir=str(tmp_path))
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("CHECKPOINT")
        root = db.last_trace
        for phase in (
            "checkpoint.begin",
            "checkpoint.flush",
            "checkpoint.end",
        ):
            assert root.find(phase) is not None, phase
        assert_connected(root)

    def test_wal_fsync_spans_reconcile_with_counter(self, tmp_path):
        """Exactly one ``wal.fsync`` span per physical fsync: the span
        count summed over traces equals the WAL writer's ``fsyncs``
        counter delta (skip paths — already-durable LSNs under group
        commit — record nothing)."""
        db = Database(data_dir=str(tmp_path))
        db.execute("CREATE TABLE t (id INT, v TEXT)")
        db.execute("INSERT INTO t VALUES (0, 'seed')")
        wal = db.txn.writer
        base = wal.fsyncs
        span_fsyncs = 0
        for i in range(8):
            db.execute(f"INSERT INTO t VALUES ({i + 1}, 'x')")
            span_fsyncs += len(db.last_trace.find_all("wal.fsync"))
        assert span_fsyncs == wal.fsyncs - base

    def test_wal_append_spans_merge(self, tmp_path):
        db = Database(data_dir=str(tmp_path))
        db.execute("CREATE TABLE t (id INT)")
        values = ", ".join(f"({i})" for i in range(100))
        db.execute(f"INSERT INTO t VALUES {values}")
        root = db.last_trace
        appends = root.find_all("wal.append")
        # merged: bounded span count no matter how many records
        assert 1 <= len(appends) <= 3
        total = sum(s.counters.get("count", 1.0) for s in appends)
        assert total >= 100

    def test_span_trees_follow_the_trace_flag_alone(self, db):
        """Observability on builds a real tree per session statement —
        root, lock, execute, commit at the least — and off builds none
        (the two arms the retired E19 experiment compared)."""
        from repro.obs import ObsConfig

        db.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        with db.create_session() as session:
            session.execute("INSERT INTO kv VALUES (1, 10)")
            assert sum(1 for _ in db.last_trace.walk()) >= 4
            session.query("SELECT v FROM kv WHERE k = 1")
            assert sum(1 for _ in db.last_trace.walk()) >= 4
        off = Database(obs=ObsConfig.off())
        off.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        with off.create_session() as session:
            session.execute("INSERT INTO kv VALUES (2, 20)")
            session.query("SELECT v FROM kv WHERE k = 2")
            assert off.last_trace is None

    def test_trace_off_records_nothing(self):
        from repro.obs import ObsConfig

        db = Database(obs=ObsConfig.off())
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.last_trace is None
        assert db.last_request_trace is None


# -- the server path -----------------------------------------------------------


@pytest.fixture()
def served():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    with DatabaseServer(db) as server:
        yield db, server


def connect(server):
    host, port = server.address
    return Client(host, port)


class TestServerTracing:
    def test_response_carries_trace_id(self, served):
        _db, server = served
        with connect(server) as client:
            result = client.execute("SELECT * FROM t")
            assert len(result.trace_id) == 16
            assert result.trace is None  # not asked for

    def test_client_trace_id_propagates(self, served):
        db, server = served
        with connect(server) as client:
            result = client.execute(
                "SELECT * FROM t", trace_id="cafe0000cafe0000"
            )
        assert result.trace_id == "cafe0000cafe0000"
        assert db.last_request_trace.trace_id == "cafe0000cafe0000"

    def test_request_tree_is_connected_end_to_end(self, served):
        db, server = served
        with connect(server) as client:
            result = client.execute(
                "UPDATE t SET v = 99 WHERE id = 2", trace=True
            )
        tree = Span.from_dict(result.trace)
        assert tree.name == "request"
        for name in (
            "protocol.decode",
            "session.dispatch",
            "lock.acquire",
            "execute",
            "txn.commit",
        ):
            assert tree.find(name) is not None, name
        assert_connected(tree)
        # the full server-side tree additionally contains the encode span
        full = db.last_request_trace.root
        assert full.find("protocol.encode") is not None
        assert_connected(full)

    def test_last_trace_is_the_served_request_tree(self, served):
        db, server = served
        embedded = db.last_trace  # the fixture's INSERT, run in process
        assert embedded.name == "query"
        with connect(server) as client:
            reply = client.execute("SELECT v FROM t WHERE id = 2", trace=True)
        assert db.last_trace is db.last_request_trace.root
        assert db.last_request_trace.trace_id == reply.trace_id
        tree = db.last_trace
        assert tree is not embedded and tree.name == "request"
        assert tree.span_id == Span.from_dict(reply.trace).span_id
        # a snapshot read's span: the served SELECT's, not the INSERT's
        assert tree.find("mvcc.acquire") is not None

    def test_server_trace_attributed_to_session(self, served):
        db, server = served
        with connect(server) as client:
            client.execute("SELECT * FROM t")
            trace = db.last_request_trace
            assert trace.session_id > 0
            assert trace.root.attrs["session"] == str(trace.session_id)

    def test_chrome_export_of_server_request_validates(self, tmp_path):
        db = Database(data_dir=str(tmp_path / "data"))
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        with DatabaseServer(db) as server:
            with connect(server) as client:
                client.execute("INSERT INTO t VALUES (4, 40)")
        path = tmp_path / "trace.json"
        text = db.last_trace_export(str(path))
        obj = json.loads(path.read_text())
        assert json.loads(text) == obj
        assert validate_chrome_trace(obj) == []
        names = [e["name"] for e in obj["traceEvents"]]
        for name in ("request", "wal.append", "wal.fsync", "txn.commit"):
            assert name in names, name

    def test_untraced_server_omits_trace_fields(self):
        from repro.obs import ObsConfig

        db = Database(obs=ObsConfig.off())
        db.execute("CREATE TABLE t (id INT)")
        with DatabaseServer(db) as server:
            with connect(server) as client:
                result = client.execute("SELECT * FROM t", trace=True)
                assert result.trace_id == ""
                assert result.trace is None


# -- Chrome trace-event export -------------------------------------------------


class TestChromeExport:
    def test_metadata_and_root_args(self):
        tracer = Tracer(trace_id="1234567812345678")
        with tracer.span("request"):
            pass
        trace = RequestTrace("1234567812345678", "SELECT 1", tracer.root)
        obj = chrome_trace_events(trace, process_name="mydb")
        meta = obj["traceEvents"][0]
        assert meta["ph"] == "M"
        assert meta["args"]["name"] == "mydb"
        root_ev = obj["traceEvents"][1]
        assert root_ev["args"]["trace_id"] == "1234567812345678"
        assert root_ev["args"]["sql"] == "SELECT 1"

    def test_validator_flags_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        bad = {"traceEvents": [{"ph": "Z", "pid": 1, "tid": 1}]}
        problems = validate_chrome_trace(bad)
        assert any("unknown phase" in p for p in problems)
        negative = {
            "traceEvents": [
                {"ph": "X", "pid": 1, "tid": 1, "name": "x", "ts": -1, "dur": 0}
            ]
        }
        assert any(
            "negative" in p for p in validate_chrome_trace(negative)
        )

    def test_export_helper_writes_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("request"):
            pass
        path = tmp_path / "out.json"
        export_chrome_trace(tracer.root, str(path))
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_export_without_capture_raises(self):
        from repro.engine.database import EngineError

        db = Database()
        with pytest.raises(EngineError):
            db.last_trace_export()


# -- slow-trace ring + system tables -------------------------------------------


class TestTraceRingAndSystables:
    def test_slow_traces_gated_on_auto_explain(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert len(db.auto_explain.entries()) == 0  # auto_explain off
        db.auto_explain.configure(enabled=True, threshold_ms=0.0)
        db.execute("INSERT INTO t VALUES (2)")
        entries = db.auto_explain.entries()
        assert len(entries) == 1
        assert entries[0]["sql"].startswith("INSERT")

    def test_one_capture_per_slow_request_whatever_its_kind(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.auto_explain.configure(enabled=True, threshold_ms=0.0)
        db.execute("INSERT INTO t VALUES (1, 10)")
        db.query("SELECT v FROM t WHERE id = 1")
        entries = db.auto_explain.entries()
        assert [e["sql"] for e in entries] == [
            "INSERT INTO t VALUES (1, 10)", "SELECT v FROM t WHERE id = 1",
        ]
        insert, select = entries
        assert "plan" not in insert and insert["rows"] == 1
        assert "Scan(t AS t" in select["plan"] and select["rows"] == 1
        for entry in entries:
            tree = Span.from_dict(entry["trace"])
            assert tree.name == "query"
            assert entry["duration_ms"] == tree.duration_ms
            assert entry["trace_id"] and entry["session_id"] == 1
        rows = db.query("SELECT trace_id, sql FROM sys_stat_traces").rows
        assert rows == [(e["trace_id"], e["sql"]) for e in entries]

    def test_recorder_leaves_the_statement_only_while_enabled(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        off, on = Tracer(), Tracer()
        with activate_tracer(off), off.span("request"):
            db.execute("INSERT INTO t VALUES (1)")
        db.auto_explain.configure(enabled=True, threshold_ms=1e9)
        with activate_tracer(on), on.span("request"):
            db.query("SELECT id FROM t")
        assert off.statement is None
        assert on.statement[0].sql == "SELECT id FROM t"
        db.harvest_pending()

    def test_sys_stat_traces_queryable(self):
        db = Database()
        db.auto_explain.configure(enabled=True, threshold_ms=0.0)
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        result = db.query(
            "SELECT trace_id, sql, duration_ms, spans, top_span "
            "FROM sys_stat_traces"
        )
        assert result.rowcount >= 1
        row = result.rows[-1]
        assert len(row[0]) == 16
        assert row[3] > 1  # more than just the root span
        assert row[4] != ""  # slowest child named

    def test_sys_stat_locks_accumulates(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        result = db.query(
            "SELECT table_name, holder_txn, acquisitions, contended, "
            "wait_ms FROM sys_stat_locks"
        )
        locks = {row[0]: row for row in result.rows}
        assert "t" in locks
        assert locks["t"][1] == 0  # nothing held between statements
        assert locks["t"][2] >= 2
        assert locks["t"][4] >= 0.0

    def test_one_reading_of_a_table_lock_wait(self):
        """A wait is recorded once, by the acquisition that found the lock
        held: the ``lock.table`` wait event, ``contended``/``wait_ms`` in
        ``sys_stat_locks`` and the ``lock.acquire`` span agree, and an
        uncontended acquisition reaches none of them."""
        import threading
        import time

        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        for i in range(5):
            result = db.execute(f"INSERT INTO t VALUES ({i})")
            assert "wait_ms" not in result.trace.find("lock.acquire").counters
        holder = db.create_session()
        holder.execute("BEGIN")
        holder.execute("INSERT INTO t VALUES (100)")
        waiter = db.create_session()
        done = []
        thread = threading.Thread(
            target=lambda: done.append(waiter.execute("INSERT INTO t VALUES (101)"))
        )
        thread.start()
        time.sleep(0.05)
        holder.execute("COMMIT")
        thread.join(10)
        db.execute("INSERT INTO t VALUES (102)")

        (contended, wait_ms), = db.query(
            "SELECT contended, wait_ms FROM sys_stat_locks WHERE table_name = 't'"
        ).rows
        waits = db.query(
            "SELECT wait_count, total_ms FROM sys_stat_waits "
            "WHERE event = 'lock.table'"
        ).rows
        assert contended == 1 and waits[0][0] == contended
        assert waits[0][1] == pytest.approx(wait_ms, rel=1e-9, abs=0)
        span_ms = done[0].trace.find("lock.acquire").counters["wait_ms"]
        assert span_ms == pytest.approx(wait_ms, rel=1e-9, abs=0)
        assert wait_ms >= 40.0

    def test_sys_stat_locks_shows_holder(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        session = db.create_session()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1)")
        result = db.query("SELECT holder_txn FROM sys_stat_locks")
        assert result.rows[0][0] > 0
        session.execute("ROLLBACK")
        session.close()


# -- DML in the query log + latency quantiles ----------------------------------


class TestDmlAccounting:
    def test_dml_recorded_in_query_log(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        db.execute("UPDATE t SET v = 0 WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        kinds = [r.kind for r in db.query_log.entries()]
        assert kinds == ["insert", "update", "delete"]
        insert = db.query_log.entries()[0]
        assert insert.actual_rows == 2
        assert insert.execution_ms > 0
        assert insert.session_id > 0

    def test_dml_log_carries_the_access_path_estimates(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.insert_rows("t", [(i, i % 4) for i in range(400)])
        db.execute("ANALYZE t")
        db.execute("UPDATE t SET v = 9 WHERE id = 4")
        db.execute("DELETE FROM t WHERE v = 1")
        db.execute("INSERT INTO t VALUES (1000, 0)")
        update, delete, insert = db.query_log.entries()
        # priced like the SELECT with the same WHERE: a pk probe is a few
        # page reads, the unindexed predicate a walk of the heap
        assert update.est_rows == pytest.approx(1.0)
        assert 0.0 < update.est_cost < delete.est_cost
        assert delete.est_rows == pytest.approx(100.0, rel=0.2)
        assert delete.actual_rows == 100
        assert delete.q_error == pytest.approx(1.0, rel=0.2)
        assert (insert.est_rows, insert.est_cost) == (1.0, 0.0)

    def test_dml_attributed_to_explicit_txn(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        session = db.create_session()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1)")
        record = db.query_log.entries()[-1]
        assert record.txn_id > 0
        assert record.session_id == session.id
        session.execute("COMMIT")
        session.close()

    def test_dml_visible_in_sys_stat_statements(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        for i in range(3):
            db.execute(f"INSERT INTO t VALUES ({i})")
        result = db.query(
            "SELECT statement, calls FROM sys_stat_statements"
        )
        by_stmt = {row[0]: row[1] for row in result.rows}
        insert_calls = [
            calls
            for stmt, calls in by_stmt.items()
            if stmt.startswith("insert")  # statements are normalized
        ]
        assert insert_calls == [3]

    def test_latency_quantiles_in_prom(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.query("SELECT COUNT(*) FROM t")
        text = db.metrics_snapshot(format="prom")
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_statement_latency_ms{")
        ]
        assert lines, text
        for q in ("0.5", "0.95", "0.99"):
            assert any(f'quantile="{q}"' in line for line in lines)
        # byte-stable: scrapers diff on text
        assert text == db.metrics_snapshot(format="prom")

    def test_latency_store_bounds_fingerprints(self):
        from repro.obs import StatementStore, statement_fingerprint

        store = StatementStore()
        kept = [f"SELECT c{i} FROM t" for i in range(store.MAX_STATEMENTS)]
        for i, sql in enumerate(kept):
            store.observe(sql, float(i))
        store.observe("SELECT dropped FROM t", 3.0)
        store.observe(kept[0], 4.0)  # known: still counted
        assert len(store) == store.MAX_STATEMENTS
        assert store.dropped == 1
        fps = {fp for fp, _q, _v in store.quantiles()}
        assert fps == {statement_fingerprint(sql) for sql in kept}
        calls = {row[0]: row[1] for row in store.rows()}
        assert calls["select c0 from t"] == 2
        assert sum(calls.values()) == store.MAX_STATEMENTS + 1

    def test_json_snapshot_counts_slow_requests_in_one_section(self):
        db = Database()
        db.auto_explain.configure(enabled=True, threshold_ms=0.0)
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1)")
        snap = db.metrics_snapshot()
        # CREATE TABLE and the INSERT both crossed the 0 ms threshold
        assert snap["auto_explain"]["captured_total"] == 2
        assert snap["counters"]["slow_queries_captured_total"] == 2.0
        assert "traces" not in snap
        assert snap["statement_latency"]
