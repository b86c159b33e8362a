"""The statement path: one entry, one read envelope, one write envelope,
one recorder (``Database._run_statement`` / ``_read`` / ``_write`` /
``_record``).

Every statement kind, in autocommit and inside ``BEGIN … COMMIT`` /
``BEGIN … ROLLBACK`` through ``Session.execute``, must leave exactly the
records it owes (query log, statement latency, span tree) and nothing
else behind: no snapshot, no table lock, no transient table, no activity
entry.  The same holds after a statement that fails — before it starts,
half-way through, or in a nested internal select — and a failed *write*
takes its whole transaction with it.  A failed *read* changed nothing, so
the read envelope leaves an explicit transaction open, as it always has.

The three regressions the shared path fixes are pinned at the end:
``Database.analyze()`` invalidating the plan cache outside its locks,
writers missing from ``sys_stat_activity``, and ``plan()``/``explain()``
materializing into the catalog without the statement lock.
"""

import threading
import time

import pytest

from repro import Database, EngineError
from repro.catalog import CatalogError
from repro.obs import ObsConfig, statement_fingerprint
from repro.types import SchemaError, TypeError_

BASELINE = [(k, k * 10) for k in range(5)]


def make_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    db.execute(
        "INSERT INTO t VALUES " + ", ".join(f"({k}, {v})" for k, v in BASELINE)
    )
    return db


def table_rows(db):
    return db.query("SELECT k, v FROM t ORDER BY k").rows


def assert_nothing_left_behind(db):
    assert db.txn.versions.active_snapshots() == 0
    assert all(row["holder_txn"] == 0 for row in db.txn.lock_rows())
    assert db._live_transients == []
    assert not [i.name for i in db.catalog.tables() if i.name.startswith("__")]
    assert len(db.activity) == 0


# (sql, query-log kind or None for the unlogged DDL, legal inside a
# transaction, table contents once its effect is committed)
STATEMENTS = {
    "select": ("SELECT v FROM t WHERE k = 3", "select", True, BASELINE),
    "insert": (
        "INSERT INTO t VALUES (9, 90)", "insert", True, BASELINE + [(9, 90)],
    ),
    "update": (
        "UPDATE t SET v = v + 1 WHERE k = 1",
        "update",
        True,
        [(0, 0), (1, 11), (2, 20), (3, 30), (4, 40)],
    ),
    "delete": (
        "DELETE FROM t WHERE k = 2", "delete", True, BASELINE[:2] + BASELINE[3:],
    ),
    "create index": ("CREATE INDEX iv ON t (v)", None, False, BASELINE),
    "analyze": ("ANALYZE t", None, False, BASELINE),
}
MODES = ("autocommit", "commit", "rollback")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", list(STATEMENTS))
def test_lifecycle(name, mode):
    sql, kind, legal_in_txn, committed = STATEMENTS[name]
    db = make_db()
    session = db.create_session()
    if mode != "autocommit":
        session.execute("BEGIN")
        if not legal_in_txn:
            with pytest.raises(EngineError, match="autocommit"):
                session.execute(sql)
            # rejected before it began: the transaction is untouched
            assert session.in_transaction
            session.execute("ROLLBACK")
            assert_nothing_left_behind(db)
            return
    txn_id = session.txn.id if session.in_transaction else None
    logged = len(db.query_log)

    result = session.execute(sql)

    # one span tree, rooted at `query`, parse first
    assert result.trace.name == "query"
    assert result.trace.children[0].name == "parse"
    # exactly the records it owes
    records = db.query_log.entries()[logged:]
    observed = db.latency.snapshot().get(statement_fingerprint(sql))
    if kind is None:
        assert records == [] and observed is None
    else:
        (record,) = records
        assert (record.sql, record.kind) == (sql, kind)
        assert record.session_id == session.id
        if txn_id is not None:
            assert record.txn_id == txn_id
        elif kind == "select":
            assert record.txn_id == 0  # a statement snapshot, no transaction
        else:
            assert record.txn_id > 0  # the implicit transaction's
        assert observed["count"] == 1

    if mode != "autocommit":
        assert session.in_transaction
        session.execute(mode.upper())
    assert not session.in_transaction
    assert_nothing_left_behind(db)
    assert table_rows(db) == (BASELINE if mode == "rollback" else committed)


def test_insert_rows_is_enveloped_but_not_logged():
    db = make_db()
    logged = len(db.query_log)
    with db.create_session() as session:
        session.execute("BEGIN")
        assert db.insert_rows("t", [(7, 70)], session=session) == 1
        session.execute("ROLLBACK")
        assert table_rows(db) == BASELINE
        assert db.insert_rows("t", [(7, 70)], session=session) == 1
    assert table_rows(db) == BASELINE + [(7, 70)]
    assert [r.kind for r in db.query_log.entries()[logged:]] == ["select"] * 2
    assert_nothing_left_behind(db)


# -- the two observability states ---------------------------------------------

# every statement kind the path dispatches; (session name, sql)
TWO_STATE_SCRIPT = [
    ("a", "CREATE TABLE w (k INT PRIMARY KEY, g INT, v FLOAT)"),
    ("a", "INSERT INTO w VALUES "
          + ", ".join(f"({k}, {k % 7}, {k * 1.5})" for k in range(400))),
    ("a", "CREATE INDEX wg ON w (g)"),
    ("a", "ANALYZE w"),
    ("a", "UPDATE w SET v = v + 1 WHERE k = 17"),
    ("a", "DELETE FROM w WHERE k >= 390"),
    ("a", "SELECT v FROM w WHERE k = 17"),
    ("a", "SELECT v FROM w WHERE k = 18"),  # the same shape: a cache hit
    ("a", "SELECT k, v FROM w WHERE k BETWEEN 100 AND 140 ORDER BY k"),
    ("a", "SELECT g, COUNT(*), SUM(v) FROM w GROUP BY g ORDER BY g"),
    ("a", "CREATE VIEW per_g AS SELECT g, COUNT(*) AS n FROM w GROUP BY g"),
    ("a", "SELECT g FROM per_g WHERE n > 55 ORDER BY g"),  # materialized
    ("a", "SELECT k FROM w WHERE v > (SELECT AVG(v) FROM w) ORDER BY k LIMIT 5"),
    ("a", "SELECT k FROM w WHERE g IN (SELECT g FROM per_g WHERE n < 56) "
          "AND k < 20 ORDER BY k"),
    ("a", "EXPLAIN ANALYZE SELECT g, COUNT(*) FROM w WHERE k < 200 GROUP BY g"),
    ("a", "BEGIN"),
    ("a", "INSERT INTO w VALUES (1000, 1, 1.0)"),
    ("a", "SELECT COUNT(*) FROM w"),
    ("b", "SELECT COUNT(*) FROM w"),  # another session: not yet committed
    ("a", "COMMIT"),
    ("b", "BEGIN"),
    ("b", "UPDATE w SET v = 0.0 WHERE g = 3"),
    ("b", "ROLLBACK"),
    ("b", "SELECT COUNT(*), SUM(v) FROM w"),
]


def run_two_state_script(obs):
    db = Database(buffer_pages=64, obs=obs)
    sessions = {"a": db.create_session(), "b": db.create_session()}
    trail = []
    for who, sql in TWO_STATE_SCRIPT:
        result = sessions[who].execute(sql)
        plan = None if result.plan is None else result.plan.pretty()
        # EXPLAIN ANALYZE prints wall-clock actuals: compare its plan only
        rows = len(result.rows) if sql.startswith("EXPLAIN") else result.rows
        trail.append((sql, rows, plan))
    assert_nothing_left_behind(db)
    return db, trail


def test_two_states_same_answers_same_plans_same_pages():
    """Observability is on or off and decides nothing else: rows, plans
    and page traffic are the same in both states, and the off state
    leaves every store empty."""
    on, on_trail = run_two_state_script(ObsConfig())
    off, off_trail = run_two_state_script(ObsConfig.off())
    for mine, theirs in zip(on_trail, off_trail, strict=True):
        assert mine == theirs
    assert on.disk.stats == off.disk.stats
    assert on.pool.stats == off.pool.stats
    assert on.plan_cache.stats.hits == off.plan_cache.stats.hits > 0

    selects = sum(sql.startswith("SELECT") for _, sql in TWO_STATE_SCRIPT)
    assert on.metrics.counter("queries_total").value > selects  # + nested
    # + five DML statements and the run inside EXPLAIN ANALYZE
    assert len(on.query_log) == selects + 6
    # the point reads share a shape, the two COUNT(*)s a text
    assert len(on.baselines) == selects - 2 + 1
    assert len(on.feedback) > 0 and len(on.waits) > 0
    assert on.last_trace is not None and on.last_request_trace is not None

    assert off.metrics.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {},
    }
    assert len(off.query_log) == len(off.latency) == 0
    assert len(off.baselines) == len(off.feedback) == len(off.waits) == 0
    assert off.last_trace is None and off.last_request_trace is None
    assert off.last_search is None and len(off.traces.entries()) == 0


# -- failure paths ------------------------------------------------------------


def db_with_broken_view() -> Database:
    """`ok` materializes fine, `bad` raises in its nested select (its
    table is gone) — after `ok`'s transient table already exists."""
    db = make_db()
    db.execute("CREATE TABLE u (a INT)")
    db.execute("CREATE VIEW ok AS SELECT v, COUNT(*) AS n FROM t GROUP BY v")
    db.execute("CREATE VIEW bad AS SELECT a, COUNT(*) AS n FROM u GROUP BY a")
    db.execute("DROP TABLE u")
    return db


# (database, sql, exception, is a write)
FAILURES = {
    "select, before it starts": (
        make_db, "SELECT v FROM t WHERE zz = 1", SchemaError, False,
    ),
    "update, before it starts": (
        make_db, "UPDATE t SET v = 1 WHERE zz = 1", SchemaError, True,
    ),
    "delete, before it starts": (
        make_db, "DELETE FROM t WHERE zz = 1", SchemaError, True,
    ),
    # 12, 6, 4, 3 are rewritten; 12 / 5 = 2.4 is not an INT
    "update, mid-way": (
        make_db, "UPDATE t SET v = 12 / (k + 1)", TypeError_, True,
    ),
    "insert, mid-way": (
        make_db, "INSERT INTO t VALUES (7, 70), (8, v)", EngineError, True,
    ),
    "nested select: subquery": (
        make_db, "SELECT v FROM t WHERE k IN (SELECT zz FROM t)",
        EngineError, False,
    ),
    "nested select: view": (
        db_with_broken_view, "SELECT ok.v FROM ok, bad", CatalogError, False,
    ),
}


@pytest.mark.parametrize("in_txn", [False, True], ids=["autocommit", "in txn"])
@pytest.mark.parametrize("name", list(FAILURES))
def test_failed_statement_cleans_up(name, in_txn):
    build, sql, error, is_write = FAILURES[name]
    db = build()
    session = db.create_session()
    if in_txn:
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (9, 90)")  # an earlier statement
        session.query("SELECT COUNT(*) FROM t")  # pins the txn's snapshot
    logged = len(db.query_log)

    with pytest.raises(error):
        session.execute(sql)

    assert db.query_log.entries()[logged:] == []  # a failure is not logged
    assert len(db.activity) == 0
    assert db._live_transients == []
    if in_txn and not is_write:
        # a failed read changed nothing and leaves the transaction open
        assert session.in_transaction
        assert session.query("SELECT v FROM t WHERE k = 9").rows == [(90,)]
        session.execute("ROLLBACK")
    # a failed write aborted the whole transaction, earlier statements too
    assert not session.in_transaction
    assert_nothing_left_behind(db)
    assert table_rows(db) == BASELINE


def test_midway_failure_really_was_midway(monkeypatch):
    """The mid-way row above fails on the fifth victim: four heap rows
    were rewritten, and undone, by the time the statement raised."""
    db = make_db()
    heap = db.table("t").heap
    real, calls = heap.update, []

    def counting(rid, row):
        calls.append(row)
        return real(rid, row)

    monkeypatch.setattr(heap, "update", counting)
    with pytest.raises(TypeError_):
        db.execute("UPDATE t SET v = 12 / (k + 1)")
    assert [row[1] for row in calls] == [12, 6, 4, 3, 2.4]
    assert table_rows(db) == BASELINE


# -- the three regressions ------------------------------------------------------


@pytest.mark.parametrize(
    "run_analyze",
    [lambda db: db.analyze(), lambda db: db.execute("ANALYZE t")],
    ids=["Database.analyze", "ANALYZE statement"],
)
def test_analyze_leaves_no_stale_plan_cached(run_analyze, monkeypatch):
    """A statement another session runs while ANALYZE waits for its table
    lock is planned on the old statistics; the invalidation must come
    after it, inside the write envelope."""
    db = make_db()
    other = db.create_session()
    real, raced = db.txn.lock_table, []

    def racing_lock_table(txn, table):
        if not raced:
            raced.append(other.query("SELECT v FROM t WHERE k = 3").rows)
        return real(txn, table)

    monkeypatch.setattr(db.txn, "lock_table", racing_lock_table)
    run_analyze(db)
    assert raced == [[(30,)]]
    assert len(db.plan_cache) == 0
    misses = db.plan_cache.stats.misses
    other.query("SELECT v FROM t WHERE k = 4")
    assert db.plan_cache.stats.misses == misses + 1


def _activity(db, observer, session_id):
    rows = observer.query(
        "SELECT session_id, state, sql, phase, snapshot_ts "
        "FROM sys_stat_activity"
    ).rows
    return [row[1:] for row in rows if row[0] == session_id]


def test_parked_writer_is_visible_in_activity():
    db = make_db()
    db.txn.lock_timeout = 30.0
    holder, writer, observer = (db.create_session() for _ in range(3))
    sql = "UPDATE t SET v = -1 WHERE k = 1"
    holder.execute("BEGIN")
    holder.execute("UPDATE t SET v = v WHERE k = 0")  # takes t's lock
    done = []

    def parked():
        writer.execute(sql)
        done.append(True)

    thread = threading.Thread(target=parked)
    thread.start()
    try:
        deadline = time.monotonic() + 30.0
        while not any(r["writers_waiting"] for r in db.txn.lock_rows()):
            assert time.monotonic() < deadline, "writer never reached the lock"
            time.sleep(0.005)
        # DML runs under no read snapshot: snapshot_ts stays NULL
        assert _activity(db, observer, writer.id) == [
            ("active", sql, "lock wait", None)
        ]
        assert not done
    finally:
        holder.execute("COMMIT")
        thread.join(timeout=30)
    assert done
    assert _activity(db, observer, writer.id) == [("idle", "", "", None)]
    assert_nothing_left_behind(db)


def test_plan_and_explain_hold_the_statement_lock(monkeypatch):
    """Planning materializes a non-mergeable view and a ``sys_stat_*``
    snapshot into real catalog tables; ``plan()``/``explain()`` must do
    that under ``_stmt_lock`` like the EXPLAIN statement does."""
    db = make_db()
    db.execute("CREATE VIEW w AS SELECT v, COUNT(*) AS n FROM t GROUP BY v")

    class CountingLock:
        def __init__(self, inner):
            self.inner, self.depth = inner, 0

        def __enter__(self):
            self.inner.acquire()
            self.depth += 1

        def __exit__(self, *exc):
            self.depth -= 1
            self.inner.release()

    lock = db._stmt_lock = CountingLock(db._stmt_lock)
    real, depths = db.catalog.create_table, []

    def create_table(name, schema):
        depths.append((name, lock.depth))
        return real(name, schema)

    monkeypatch.setattr(db.catalog, "create_table", create_table)
    db.plan("SELECT n FROM w")
    db.explain("SELECT table_name FROM sys_stat_tables")
    assert len(depths) == 2
    assert all(depth >= 1 for _, depth in depths), depths
    assert_nothing_left_behind(db)
