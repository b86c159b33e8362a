"""The recorder runs after the reply, and no reader can tell (ISSUE 21).

A statement's record and its request trace are queued on the reply path
and harvested by the request's owner — ``Database._run_statement``
before it returns, the server's connection thread once the frame is
sent.  Every reader of a harvested store drains the queue first, so:
enqueue happens-before send happens-before any read a client can make
after its reply.
"""

import socket
import sys
import threading
import time

from repro import Database, ObsConfig
from repro.obs import Tracer, activate_tracer, normalize_statement
from repro.server import Client, DatabaseServer
from repro.server.protocol import encode_message, recv_message, send_message

ROWS = 300


def make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT, pad TEXT)")
    db.insert_rows("kv", [(k, k * 7, "p" * 40) for k in range(ROWS)])
    db.analyze()
    return db


def calls_of(rows, statement):
    return dict(rows).get(statement, 0)


# -- no reader can miss a record -------------------------------------------------


def test_a_reply_in_hand_means_the_statement_is_everywhere():
    db = make_db()
    shape = normalize_statement("SELECT v FROM kv WHERE k = 1")
    with DatabaseServer(db) as server:
        with Client(*server.address) as writer, Client(*server.address) as other:
            for i in range(200):
                sql = f"SELECT v FROM kv WHERE k = {i}"
                reply = writer.execute(sql)
                assert db.query_log.entries()[-1].sql == sql
                assert db.last_request_trace.trace_id == reply.trace_id
                seen = other.execute(
                    "SELECT statement, calls FROM sys_stat_statements"
                ).rows
                # the ring keeps 256 records: the writer's and the reader's
                assert calls_of(seen, shape) == min(i + 1, 128)
    assert not db._pending


def test_two_writers_one_reader():
    db = make_db()
    per_writer = 50
    shapes = {
        "a": "SELECT v FROM kv WHERE k = {}",
        "b": "SELECT k FROM kv WHERE v = {}",
    }
    acked = {"a": 0, "b": 0}
    failures = []
    done = threading.Event()

    def writer(name, address):
        try:
            with Client(*address) as client:
                for i in range(per_writer):
                    sql = shapes[name].format(i)
                    reply = client.execute(sql)
                    if not any(r.sql == sql for r in db.query_log.entries()):
                        failures.append(f"{sql!r} acknowledged but not logged")
                    if not reply.trace_id:
                        failures.append(f"{sql!r} came back without a trace id")
                    acked[name] = i + 1
        except Exception as exc:  # a dead writer must fail the test, not hang it
            failures.append(repr(exc))

    def reader(address):
        try:
            with Client(*address) as client:
                seen = {"a": 0, "b": 0}
                for _ in range(100):
                    if done.is_set():
                        break
                    before = dict(acked)
                    rows = client.execute(
                        "SELECT statement, calls FROM sys_stat_statements"
                    ).rows
                    for name, template in shapes.items():
                        calls = calls_of(rows, normalize_statement(template.format(0)))
                        if calls < before[name]:
                            failures.append(
                                f"{name}: {before[name]} acknowledged, {calls} visible"
                            )
                        if calls < seen[name]:
                            failures.append(f"{name}: calls went back")
                        seen[name] = calls
        except Exception as exc:
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with DatabaseServer(db) as server:
            writers = [
                threading.Thread(target=writer, args=(name, server.address))
                for name in shapes
            ]
            watching = threading.Thread(target=reader, args=(server.address,))
            for t in [*writers, watching]:
                t.start()
            for t in writers:
                t.join(timeout=60)
            done.set()
            watching.join(timeout=60)
            assert not any(t.is_alive() for t in [*writers, watching])
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert acked == {"a": per_writer, "b": per_writer}
    logged = [r.sql for r in db.query_log.entries()]
    for name, template in shapes.items():
        assert template.format(per_writer - 1) in logged


def test_embedded_owner_finalizes_before_it_returns():
    db = make_db()
    result = db.execute("SELECT v FROM kv WHERE k = 3")
    # nothing is left for a reader to drain
    assert not db._pending
    assert db._query_log.entries()[-1].sql == "SELECT v FROM kv WHERE k = 3"
    assert db._last_request_trace.root is result.trace
    db.execute("INSERT INTO kv VALUES (1000, 1, 'x')")
    assert not db._pending
    assert db._query_log.entries()[-1].kind == "insert"


def test_off_enqueues_nothing():
    db = make_db(obs=ObsConfig.off())
    with DatabaseServer(db) as server, Client(*server.address) as client:
        client.execute("SELECT v FROM kv WHERE k = 3")
        client.execute("INSERT INTO kv VALUES (1000, 1, 'x')")
        assert not db._pending
    assert len(db.query_log) == 0 and db.last_request_trace is None


# -- the queue is bounded -----------------------------------------------------------


def test_statements_that_do_not_own_their_trace_queue_up_to_the_bound():
    db = make_db()
    statements = 3 * Database.PENDING_BOUND + 5
    high = 0
    with activate_tracer(Tracer()):  # the owner is out here: nothing finalizes
        for i in range(statements):
            db.execute(f"SELECT v FROM kv WHERE k = {i}")
            high = max(high, len(db._pending))
    assert high == Database.PENDING_BOUND - 1  # the next one harvests inline
    assert len(db._pending) == 5  # still queued ...
    assert len(db.query_log) == statements  # ... until someone reads
    assert not db._pending


def test_a_client_that_never_reads_its_replies():
    db = make_db()
    high = [0]
    stop = threading.Event()

    def watch():
        while not stop.is_set():
            high[0] = max(high[0], len(db._pending))
            time.sleep(0.0005)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        with DatabaseServer(db) as server:
            deaf = socket.socket()
            deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            deaf.connect(server.address)
            deaf.settimeout(10)
            request = encode_message({"sql": "SELECT k, v, pad FROM kv"})
            try:
                for _ in range(400):  # ~20 KB a reply, none of them read
                    deaf.sendall(request)
            except (socket.timeout, OSError):
                pass  # the server stopped reading: its own send is stuck
            with Client(*server.address) as client:
                for i in range(50):
                    sql = f"SELECT v FROM kv WHERE k = {i}"
                    client.execute(sql)
                    assert any(r.sql == sql for r in db.query_log.entries())
            deaf.close()
    finally:
        stop.set()
        watcher.join(timeout=10)
    assert not watcher.is_alive()
    assert high[0] <= Database.PENDING_BOUND
    db.harvest_pending()
    assert not db._pending


# -- the server around it ----------------------------------------------------------


def test_workers_do_not_accumulate():
    db = make_db()
    with DatabaseServer(db) as server:
        for i in range(50):
            with Client(*server.address) as client:
                assert client.execute(f"SELECT v FROM kv WHERE k = {i}").rows == [(i * 7,)]
        deadline = time.monotonic() + 10
        while len(server._workers) > 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(server._workers) <= 2


def test_reply_frames_are_the_bytes_they_were():
    """``_run`` hands ``json.dumps`` the result's own tuples; the frame is
    what re-listing them (the parent's ``list(columns)`` and
    ``[list(row) ...]``) produced."""
    db = Database()
    db.execute("CREATE TABLE m (i INT, f FLOAT, s TEXT, n INT)")
    db.insert_rows(
        "m", [(1, 1.5, "a'b", None), (-2, 2.0, "", 7), (3, 1e-7, "é…", None)]
    )
    server = DatabaseServer(db)
    session = db.create_session()
    for sql in (
        "SELECT i, f, s, n FROM m ORDER BY i",
        "SELECT i, f, s, n FROM m WHERE i > 100",
        "SELECT COUNT(*) AS c, SUM(f) AS t FROM m",
        "INSERT INTO m VALUES (9, 9.0, 'z', NULL)",
        "DELETE FROM m WHERE i = 9",
    ):
        response = server._run(session, sql)
        relisted = dict(
            response,
            columns=list(response["columns"]),
            rows=[list(row) for row in response["rows"]],
        )
        assert list(response) == ["ok", "columns", "rows", "in_transaction"]
        assert encode_message(response) == encode_message(relisted), sql
    failure = server._run(session, "SELECT nope FROM m")
    assert list(failure) == ["ok", "error", "error_type"]
    assert (failure["ok"], failure["error_type"]) == (False, "SchemaError")


def test_the_plain_frame_reader_is_the_timed_one():
    left, right = socket.socketpair()
    try:
        send_message(left, {"sql": "SELECT 1", "trace": True})
        assert recv_message(right) == {"sql": "SELECT 1", "trace": True}
    finally:
        left.close()
        right.close()


# -- long statements and the system tables -----------------------------------------


def test_a_long_statement_does_not_break_the_system_tables():
    db = make_db()
    db.auto_explain.configure(enabled=True, threshold_ms=0.0)
    long_sql = "SELECT k FROM kv WHERE " + " OR ".join(
        f"k = {i}" for i in range(600)
    )
    assert len(long_sql) > 6000
    short_sql = "SELECT v FROM kv WHERE k = 5"
    db.execute(long_sql)
    db.execute(short_sql)

    statements = [r[0] for r in db.execute("SELECT * FROM sys_stat_statements").rows]
    bounded = [s for s in statements if s.endswith("…")]
    assert len(bounded) == 1 and len(bounded[0]) == 200
    assert normalize_statement(long_sql).startswith(bounded[0][:-1])
    assert normalize_statement(short_sql) in statements  # byte for byte
    # the store keeps the whole text
    assert any(r.sql == long_sql for r in db.query_log.entries())

    traced = [r[0] for r in db.execute("SELECT sql FROM sys_stat_traces").rows]
    assert short_sql in traced
    assert any(s.endswith("…") and len(s) == 200 for s in traced)

    # the observing statement is itself long, and in flight
    watching = "SELECT sql FROM sys_stat_activity WHERE " + " OR ".join(
        f"query_id = {i}" for i in range(300)
    )
    mine = [r[0] for r in db.execute(watching).rows if r[0]]
    assert mine and all(len(s) <= 200 for s in mine)
    assert mine[0].endswith("…") and watching.startswith(mine[0][:-1])
