"""Concurrency stress: N sessions on N threads, mixed DML + SELECT.

Each thread owns a disjoint key range and replays a deterministic
per-thread op stream (seeded ``random.Random``), tracking the expected
final state locally; a fraction of transactions ROLLBACK and must leave
no trace.  Because keyspaces are disjoint, the expected final table is
exactly the union of the per-thread serial replays — any divergence
means lost writes, leaked rollbacks, or torn pages.

Tier-1 runs a small in-process smoke (threads share the Database);
``-m slow`` scales it up and goes through the socket server, one client
connection per thread.
"""

import random
import threading

import pytest

from repro import Database
from repro.server import Client, DatabaseServer
from repro.wal import LockTimeout

KEYS_PER_THREAD = 1000


def run_thread(execute, query, thread_id, seed, txns, expected):
    """Drive one session; ``expected`` collects this thread's final rows."""
    rng = random.Random(f"{seed}:{thread_id}")
    base = thread_id * KEYS_PER_THREAD
    mine = {}
    for t in range(txns):
        staged = dict(mine)
        execute("BEGIN")
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("insert", "insert", "update", "delete"))
            if kind == "insert" or not staged:
                k = base + rng.randrange(KEYS_PER_THREAD)
                v = rng.randrange(10_000)
                execute(f"DELETE FROM s WHERE k = {k}")
                execute(f"INSERT INTO s VALUES ({k}, {v})")
                staged[k] = v
            elif kind == "update":
                k = rng.choice(sorted(staged))
                v = rng.randrange(10_000)
                execute(f"UPDATE s SET v = {v} WHERE k = {k}")
                staged[k] = v
            else:
                k = rng.choice(sorted(staged))
                execute(f"DELETE FROM s WHERE k = {k}")
                del staged[k]
        if rng.random() < 0.25:
            execute("ROLLBACK")  # must leave no trace
        else:
            execute("COMMIT")
            mine = staged
        if rng.random() < 0.3:
            count = query(
                f"SELECT COUNT(*) FROM s WHERE k >= {base} "
                f"AND k < {base + KEYS_PER_THREAD}"
            )[0][0]
            assert count == len(mine), (
                f"thread {thread_id} sees {count} own rows, expected "
                f"{len(mine)}"
            )
    expected[thread_id] = mine


def check_final_state(db, expected):
    """The table must equal the union of per-thread serial replays, and
    a raw heap scan must agree with the executor (no torn pages)."""
    want = sorted(
        (k, v) for mine in expected.values() for k, v in mine.items()
    )
    got = sorted(db.query("SELECT k, v FROM s").rows)
    assert got == want
    info = db.catalog.table("s")
    heap_rows = sorted(row for _, row in info.heap.scan())
    assert heap_rows == want


def stress(db, threads, txns, seed, make_session):
    db.execute("CREATE TABLE s (k INT, v INT)")
    expected = {}
    failures = []

    def body(thread_id):
        execute, query, close = make_session()
        try:
            run_thread(execute, query, thread_id, seed, txns, expected)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append((thread_id, exc))
        finally:
            close()

    workers = [
        threading.Thread(target=body, args=(i,), name=f"stress-{i}")
        for i in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    assert not any(w.is_alive() for w in workers), "stress thread hung"
    assert not failures, f"thread failures: {failures!r}"
    assert len(expected) == threads
    check_final_state(db, expected)


def test_threaded_sessions_smoke():
    db = Database()
    db.txn.lock_timeout = 30.0

    def make_session():
        s = db.create_session()
        return (
            s.execute,
            lambda sql: s.query(sql).rows,
            s.close,
        )

    stress(db, threads=4, txns=12, seed=7, make_session=make_session)


def test_snapshot_readers_see_committed_prefix():
    """Snapshot-aware arm: while one writer streams the deterministic
    ``repro.qa.faults`` workload, concurrent readers scan the whole
    table.  Every scan must equal the state after *some* committed
    prefix of the workload (checked against the ``reference_rows``
    oracle) — never a torn mid-transaction state — and each reader's
    observed prefix only advances (statement snapshots are
    read-committed, and commit timestamps only grow)."""
    from repro.qa import faults

    SEED, TXNS = 13, 40
    db = Database()
    db.txn.lock_timeout = 60.0
    db.execute("CREATE TABLE kv (k INT, v INT)")
    # one state can follow several prefixes (a transaction that undoes
    # its predecessor's net effect): map each state to all of them
    states = {}
    for m in range(TXNS + 1):
        states.setdefault(tuple(faults.reference_rows(SEED, m)), []).append(m)
    stop = threading.Event()
    failures = []

    def writer():
        s = db.create_session()
        try:
            for t in range(1, TXNS + 1):
                s.execute("BEGIN")
                for op in faults.txn_ops(SEED, t):
                    if op[0] == "insert":
                        s.execute(
                            f"INSERT INTO kv VALUES ({op[1]}, {op[2]})"
                        )
                    elif op[0] == "update":
                        s.execute(
                            f"UPDATE kv SET v = {op[2]} WHERE k = {op[1]}"
                        )
                    else:
                        s.execute(f"DELETE FROM kv WHERE k = {op[1]}")
                s.execute("COMMIT")
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(("writer", exc))
        finally:
            stop.set()
            s.close()

    def reader(rid):
        s = db.create_session()
        last = 0
        try:
            reads = 0
            while not stop.is_set() or reads == 0:
                rows = tuple(sorted(s.query("SELECT k, v FROM kv").rows))
                prefixes = states.get(rows)
                assert prefixes is not None, (
                    f"reader {rid} observed a state matching no committed "
                    f"prefix ({len(rows)} rows)"
                )
                ahead = [m for m in prefixes if m >= last]
                assert ahead, (
                    f"reader {rid} went backwards: prefixes {prefixes} "
                    f"after {last}"
                )
                last = min(ahead)
                reads += 1
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append((rid, exc))
        finally:
            s.close()

    threads = [threading.Thread(target=writer, name="writer")] + [
        threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
        for i in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "stress thread hung"
    assert not failures, f"failures: {failures!r}"
    final = tuple(sorted(db.query("SELECT k, v FROM kv").rows))
    assert TXNS in states[final]


def test_lock_timeout_is_an_escape_hatch():
    """Under contention a timed-out statement aborts cleanly (no leaked
    locks, no partial writes) and other sessions keep running."""
    db = Database()
    db.execute("CREATE TABLE s (k INT, v INT)")
    db.txn.lock_timeout = 0.1
    s1 = db.create_session()
    s2 = db.create_session()
    s1.execute("BEGIN")
    s1.execute("INSERT INTO s VALUES (1, 1)")
    with pytest.raises(LockTimeout):
        s2.execute("INSERT INTO s VALUES (2, 2)")
    s1.execute("COMMIT")
    s2.execute("INSERT INTO s VALUES (2, 2)")  # lock released after commit
    assert sorted(db.query("SELECT k FROM s").rows) == [(1,), (2,)]
    s1.close()
    s2.close()


@pytest.mark.slow
def test_threaded_sessions_nightly():
    db = Database()
    db.txn.lock_timeout = 60.0

    def make_session():
        s = db.create_session()
        return (
            s.execute,
            lambda sql: s.query(sql).rows,
            s.close,
        )

    stress(db, threads=8, txns=60, seed=23, make_session=make_session)


@pytest.mark.slow
def test_server_clients_nightly():
    db = Database()
    db.txn.lock_timeout = 60.0
    with DatabaseServer(db) as server:
        host, port = server.address

        def make_session():
            client = Client(host, port, timeout=120)
            return (
                client.execute,
                lambda sql: client.query(sql).rows,
                client.close,
            )

        stress(db, threads=6, txns=40, seed=31, make_session=make_session)
