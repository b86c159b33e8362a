"""Rollback ≡ before-images, and a WAL without BEGIN or ABORT records.

Rollback reads the version chains: every row the transaction touched
leaves, then each chain head's before-image goes back at its RID.  The
hypothesis property below runs random INSERT, shrinking and growing
UPDATE (a grown row moves to a new RID), range DELETE and ``c = c + 1``
UPDATE inside one explicit transaction over a table with a
single-column and a composite index at 1 KiB pages, then ROLLBACK, and
asks that every row is back at its pre-transaction RID with its bytes,
that each index holds exactly the heap's ``(key, rid)`` multiset, that
the rollback logged and versioned nothing, and that a later committed
UPDATE of a restored row survives recovery after the database is
abandoned without ``close()``.

Recovery keys on COMMIT and counts a transaction by its data records,
so the log carries no BEGIN or ABORT; a log that has them — as earlier
versions wrote it — still recovers the same rows.
"""

import os
import shutil
import tempfile
from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.wal import WAL_FILE, WalRecord, WalRecordType, encode_record, read_wal

PAGE_SIZE = 1024
SEED_ROWS = 40

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 6), st.integers(1, 60)),
        st.tuples(st.just("shrink"), st.integers(0, SEED_ROWS - 1)),
        st.tuples(
            st.just("grow"), st.integers(0, SEED_ROWS - 1), st.integers(100, 400)
        ),
        st.tuples(st.just("delete"), st.integers(0, 6), st.integers(0, 2)),
        st.tuples(st.just("bump"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=12,
)


def open_db(data_dir):
    return Database(data_dir=data_dir, page_size=PAGE_SIZE)


def seed(db):
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT, c INT)")
    db.execute("CREATE INDEX ix_a ON t (a)")
    db.execute("CREATE INDEX ix_bc ON t (b, c)")
    db.execute(
        "INSERT INTO t VALUES "
        + ", ".join(
            f"({i}, {i % 7}, '{'s' * (i % 30 + 1)}', {i})"
            for i in range(SEED_ROWS)
        )
    )


def statement(step, op):
    kind = op[0]
    if kind == "insert":
        return f"INSERT INTO t VALUES ({1000 + step}, {op[1]}, '{'n' * op[2]}', 0)"
    if kind == "shrink":
        return f"UPDATE t SET b = 'x' WHERE id = {op[1]}"
    if kind == "grow":
        return f"UPDATE t SET b = '{'g' * op[2]}' WHERE id = {op[1]}"
    if kind == "delete":
        return f"DELETE FROM t WHERE a BETWEEN {op[1]} AND {op[1] + op[2]}"
    return f"UPDATE t SET c = c + 1 WHERE a < {op[1]}"


def assert_heap_and_indexes(info, rows):
    """*info*'s heap is exactly *rows* (``(rid, row)`` in scan order) and
    every index holds exactly their ``(key, rid)`` pairs."""
    assert list(info.heap.scan()) == rows
    assert info.num_rows == len(rows)
    for ix in info.indexes.values():
        assert Counter(ix.structure.items()) == Counter(
            (ix.key_of(row), rid) for rid, row in rows
        )
        ix.structure.validate()


def page_changes(db, data_dir):
    """The WAL's records that carry a page change."""
    db.txn.writer.flush_all()
    records, _, _ = read_wal(os.path.join(data_dir, WAL_FILE))
    return [rec for rec in records if rec.is_physiological]


@settings(max_examples=25, deadline=None)
@given(ops=ops)
def test_rollback_puts_every_row_back_at_its_rid(ops):
    data_dir = tempfile.mkdtemp(prefix="rollback-images-")
    try:
        db = open_db(data_dir)
        seed(db)
        info = db.catalog.table("t")
        before = list(info.heap.scan())
        session = db.create_session()
        session.execute("BEGIN")
        for step, op in enumerate(ops):
            session.execute(statement(step, op))
        logged = page_changes(db, data_dir)
        recorded = db.txn.versions.versions_recorded
        session.execute("ROLLBACK")
        assert page_changes(db, data_dir) == logged
        assert db.txn.versions.versions_recorded == recorded
        assert db.txn.versions.live_versions() == 0
        assert_heap_and_indexes(info, before)

        # redo written after the rollback addresses restored rows by RID
        restored = next((op[1] for op in ops if op[0] != "insert"), 0)
        db.execute(f"UPDATE t SET c = -1, b = 'after' WHERE id = {restored}")
        after = list(info.heap.scan())
        db2 = open_db(data_dir)  # db abandoned without close(): a crash
        assert_heap_and_indexes(db2.catalog.table("t"), after)
        db2.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def write_history(data_dir):
    """Committed writes, a rolled-back transaction and an open one;
    returns the committed rows."""
    db = open_db(data_dir)
    seed(db)
    db.execute("UPDATE t SET c = c + 1 WHERE a < 3")
    rolled = db.create_session()
    rolled.execute("BEGIN")
    rolled.execute("DELETE FROM t WHERE a = 4")
    rolled.execute("INSERT INTO t VALUES (500, 1, 'rolled', 0)")
    rolled.execute("ROLLBACK")
    db.execute("DELETE FROM t WHERE id = 5")
    open_txn = db.create_session()
    open_txn.execute("BEGIN")
    open_txn.execute("INSERT INTO t VALUES (600, 2, 'open', 0)")
    db.txn.writer.flush_all()
    return db.query("SELECT * FROM t ORDER BY id").rows


def test_the_wal_holds_no_begin_or_abort_record(tmp_path):
    write_history(str(tmp_path))
    records, _, _ = read_wal(os.path.join(str(tmp_path), WAL_FILE))
    kinds = {rec.type for rec in records}
    assert WalRecordType.COMMIT in kinds and WalRecordType.INSERT in kinds
    assert not kinds & {WalRecordType.BEGIN, WalRecordType.ABORT}


def as_legacy_log(records, rolled_back):
    """*records* as a log with BEGIN before each transaction's first
    record and ABORT after each rolled-back one's last, LSNs renumbered
    densely — the shape earlier versions wrote."""
    last = {rec.txn_id: rec.lsn for rec in records}
    seen, out = set(), []
    for rec in records:
        if rec.txn_id not in seen:
            seen.add(rec.txn_id)
            out.append(WalRecord(0, WalRecordType.BEGIN, rec.txn_id))
        out.append(rec)
        if rec.txn_id in rolled_back and rec.lsn == last[rec.txn_id]:
            out.append(WalRecord(0, WalRecordType.ABORT, rec.txn_id))
    return b"".join(
        encode_record(replace(rec, lsn=lsn)) for lsn, rec in enumerate(out, 1)
    )


def test_a_log_with_begin_and_abort_recovers_the_same_rows(tmp_path):
    current = str(tmp_path / "current")
    legacy = str(tmp_path / "legacy")
    rows = write_history(current)
    records, _, _ = read_wal(os.path.join(current, WAL_FILE))
    committed = {r.txn_id for r in records if r.type is WalRecordType.COMMIT}
    uncommitted = {r.txn_id for r in records} - committed
    # the rolled-back transaction is the uncommitted one that is not last
    rolled_back = uncommitted - {records[-1].txn_id}
    assert len(rolled_back) == 1
    os.makedirs(legacy)
    with open(os.path.join(legacy, WAL_FILE), "wb") as f:
        f.write(as_legacy_log(records, rolled_back))
    legacy_records, _, _ = read_wal(os.path.join(legacy, WAL_FILE))
    kinds = Counter(rec.type for rec in legacy_records)
    assert kinds[WalRecordType.ABORT] == 1
    assert kinds[WalRecordType.BEGIN] == len(committed | uncommitted)

    reports = []
    for data_dir in (current, legacy):
        db = open_db(data_dir)
        assert db.query("SELECT * FROM t ORDER BY id").rows == rows
        reports.append(db.last_recovery)
        db.close()
    now, then = reports
    assert now.records_applied == then.records_applied
    assert now.committed_txns == then.committed_txns
    assert now.uncommitted_txns == then.uncommitted_txns
