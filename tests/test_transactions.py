"""Transaction semantics: BEGIN/COMMIT/ROLLBACK, rollback fidelity,
session lifecycle, lock timeouts, and durable commit/rollback.

Rollback here puts back before-images (repro.wal.manager): every heap
mutation hangs the row's prior bytes on its MVCC version chain, and
ROLLBACK puts each back at its RID — restoring rows at stable RIDs and
secondary indexes.  These
tests pin the user-visible contract; the crash-side contract lives in
test_crash_recovery.py.
"""

import os
import threading
import time

import pytest

from repro import Database, EngineError
from repro.wal import LockTimeout, WalRecordType, WalWriter


def make_db(**kwargs):
    db = Database(**kwargs)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)")
    db.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, {i * 10}, 'r{i}')" for i in range(1, 6))
    )
    return db


def all_rows(db_or_session):
    return db_or_session.query("SELECT id, v, s FROM t ORDER BY id").rows


BASELINE = [(i, i * 10, f"r{i}") for i in range(1, 6)]


class TestExplicitTransactions:
    def test_commit_publishes_changes(self):
        db = make_db()
        with db.create_session() as s:
            s.execute("BEGIN")
            assert s.in_transaction
            s.execute("INSERT INTO t VALUES (6, 60, 'r6')")
            s.execute("UPDATE t SET v = 999 WHERE id = 1")
            s.execute("COMMIT")
            assert not s.in_transaction
        rows = all_rows(db)
        assert (6, 60, "r6") in rows
        assert rows[0] == (1, 999, "r1")

    def test_rollback_restores_rows(self):
        db = make_db()
        with db.create_session() as s:
            s.execute("BEGIN")
            s.execute("INSERT INTO t VALUES (6, 60, 'r6')")
            s.execute("UPDATE t SET v = -1, s = 'gone' WHERE id <= 3")
            s.execute("DELETE FROM t WHERE id = 5")
            s.execute("ROLLBACK")
            assert not s.in_transaction
        assert all_rows(db) == BASELINE

    def test_own_changes_visible_before_commit(self):
        db = make_db()
        with db.create_session() as s:
            s.execute("BEGIN")
            s.execute("DELETE FROM t WHERE id = 2")
            s.execute("INSERT INTO t VALUES (7, 70, 'r7')")
            rows = all_rows(s)
            assert (2, 20, "r2") not in rows
            assert (7, 70, "r7") in rows
            s.execute("ROLLBACK")

    def test_rollback_restores_secondary_index(self):
        db = make_db()
        db.execute("CREATE INDEX idx_v ON t (v)")
        with db.create_session() as s:
            s.execute("BEGIN")
            s.execute("DELETE FROM t WHERE v = 30")
            s.execute("UPDATE t SET v = 12345 WHERE id = 4")
            s.execute("ROLLBACK")
        # index-driven point lookups must see the restored entries
        assert db.query("SELECT id FROM t WHERE v = 30").rows == [(3,)]
        assert db.query("SELECT id FROM t WHERE v = 40").rows == [(4,)]
        assert db.query("SELECT id FROM t WHERE v = 12345").rows == []

    def test_rollback_keeps_range_scans_correct(self):
        db = make_db()
        db.execute("ANALYZE t")
        with db.create_session() as s:
            s.execute("BEGIN")
            s.execute("INSERT INTO t VALUES (1000, 100000, 'big')")
            s.execute("DELETE FROM t WHERE id = 1")
            s.execute("ROLLBACK")
        assert db.query("SELECT id FROM t WHERE id < 100").rows == [
            (i,) for i in range(1, 6)
        ]
        assert db.query("SELECT COUNT(*) FROM t WHERE v >= 10").rows == [(5,)]

    def test_nested_begin_rejected(self):
        db = make_db()
        with db.create_session() as s:
            s.execute("BEGIN")
            with pytest.raises(EngineError, match="already in a transaction"):
                s.execute("BEGIN")
            s.execute("ROLLBACK")

    def test_commit_rollback_outside_txn_are_noops(self):
        db = make_db()
        db.execute("COMMIT")
        db.execute("ROLLBACK")
        assert all_rows(db) == BASELINE

    def test_ddl_inside_txn_rejected(self):
        db = make_db()
        with db.create_session() as s:
            s.execute("BEGIN")
            with pytest.raises(EngineError, match="autocommit"):
                s.execute("CREATE TABLE u (a INT)")
            with pytest.raises(EngineError, match="autocommit"):
                s.execute("CREATE INDEX idx ON t (v)")
            s.execute("ROLLBACK")

    def test_failed_statement_aborts_txn(self):
        db = make_db()
        with db.create_session() as s:
            s.execute("BEGIN")
            s.execute("INSERT INTO t VALUES (6, 60, 'r6')")
            with pytest.raises(EngineError):
                # non-constant INSERT values fail mid-execution
                s.execute("INSERT INTO t VALUES (id, 0, 'x')")
            assert not s.in_transaction
        assert all_rows(db) == BASELINE

    def test_session_close_rolls_back(self):
        db = make_db()
        s = db.create_session()
        s.execute("BEGIN")
        s.execute("DELETE FROM t WHERE id > 0")
        s.close()
        assert all_rows(db) == BASELINE

    def test_autocommit_failure_rolls_back_statement(self):
        db = make_db()
        with pytest.raises(EngineError):
            db.execute("INSERT INTO t VALUES (6, 60, 'a'), (7, v, 'b')")
        assert all_rows(db) == BASELINE


class TestLocking:
    def test_write_lock_times_out(self):
        db = make_db()
        db.txn.lock_timeout = 0.2
        s1 = db.create_session()
        s2 = db.create_session()
        s1.execute("BEGIN")
        s1.execute("UPDATE t SET v = 0 WHERE id = 1")
        with pytest.raises(LockTimeout):
            s2.execute("INSERT INTO t VALUES (6, 60, 'r6')")
        s1.execute("ROLLBACK")
        # lock released: the same statement now succeeds
        s2.execute("INSERT INTO t VALUES (6, 60, 'r6')")
        assert (6, 60, "r6") in all_rows(db)
        s1.close()
        s2.close()

    def test_read_does_not_block_on_writer_lock(self):
        """MVCC contract: a SELECT against a table whose write lock is
        held by an uncommitted transaction completes immediately — and
        sees the pre-transaction state, not the in-flight delete."""
        db = make_db()
        db.txn.lock_timeout = 0.2  # any lock wait would blow up fast
        s1 = db.create_session()
        s2 = db.create_session()
        s1.execute("BEGIN")
        s1.execute("DELETE FROM t WHERE id = 1")
        assert s2.query("SELECT COUNT(*) FROM t").rows == [(5,)]
        s1.execute("COMMIT")
        assert s2.query("SELECT COUNT(*) FROM t").rows == [(4,)]
        s1.close()
        s2.close()


class TestDurableTransactions:
    def test_committed_txn_survives_reopen(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = make_db(data_dir=data_dir)
        with db.create_session() as s:
            s.execute("BEGIN")
            s.execute("INSERT INTO t VALUES (6, 60, 'r6')")
            s.execute("COMMIT")
        db.close()

        with Database(data_dir=data_dir) as db2:
            assert all_rows(db2) == BASELINE + [(6, 60, "r6")]

    def test_rolled_back_txn_leaves_no_trace(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = make_db(data_dir=data_dir)
        with db.create_session() as s:
            s.execute("BEGIN")
            s.execute("UPDATE t SET v = -1 WHERE id > 0")
            s.execute("ROLLBACK")
        db.close()

        with Database(data_dir=data_dir) as db2:
            assert all_rows(db2) == BASELINE


class TestFsyncPerCommit:
    """The durability ladder the retired E18 experiment asserted beside
    its timings: no fsync without a log or with sync off, exactly one
    per serial durable COMMIT, fewer than one under group commit."""

    TXNS = 6

    @staticmethod
    def commit_txns(session, table, txns):
        for t in range(txns):
            session.execute("BEGIN")
            for j in range(3):
                session.execute(f"INSERT INTO {table} VALUES ({t * 3 + j})")
            session.execute("COMMIT")

    def test_no_wal_no_writer(self):
        db = Database()
        db.execute("CREATE TABLE kv0 (k INT)")
        with db.create_session() as s:
            self.commit_txns(s, "kv0", self.TXNS)
        assert db.txn.writer is None

    def test_serial_commits(self, tmp_path):
        db = Database(data_dir=str(tmp_path))
        db.execute("CREATE TABLE kv0 (k INT)")
        base = db.txn.writer.fsyncs
        with db.create_session() as s:
            self.commit_txns(s, "kv0", self.TXNS)
        assert db.txn.writer.fsyncs - base == self.TXNS
        db.close()

    def test_one_fsync_seals_every_commit_appended_behind_it(self, tmp_path):
        writer = WalWriter(str(tmp_path / "wal.log"))
        first = writer.append(WalRecordType.COMMIT, 1)
        second = writer.append(WalRecordType.COMMIT, 2)
        writer.flush_to(first)
        writer.flush_to(second)  # already covered: no second fsync
        assert writer.fsyncs == 1
        assert writer.flushed_lsn == second
        writer.close()

    def test_concurrent_committers_share_fsyncs(self, tmp_path, monkeypatch):
        # an fsync slow enough that the other committers append their
        # COMMITs and queue on the flush lock while one is in flight
        real_fsync = os.fsync

        def slow_fsync(fd):
            time.sleep(0.005)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        threads = 4
        db = Database(data_dir=str(tmp_path))
        # one table per committer: table write locks are held to the end
        # of the transaction, so same-table committers would serialize
        for i in range(threads):
            db.execute(f"CREATE TABLE kv{i} (k INT)")
        base = db.txn.writer.fsyncs
        failures = []

        def body(i):
            try:
                with db.create_session() as s:
                    self.commit_txns(s, f"kv{i}", self.TXNS)
            except Exception as exc:  # re-raised on the main thread
                failures.append(exc)

        workers = [
            threading.Thread(target=body, args=(i,)) for i in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        if failures:
            raise failures[0]
        commits = threads * self.TXNS
        assert 0 < db.txn.writer.fsyncs - base < commits
        for i in range(threads):
            count = db.query(f"SELECT COUNT(*) FROM kv{i}").rows[0][0]
            assert count == self.TXNS * 3
        db.close()
