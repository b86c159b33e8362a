"""The buffer frame owns its page's durability state.

A heap page a transaction dirties is *owned* by that transaction on its
buffer frame until the transaction resolves: an owned frame is never
evicted or written (no-steal, and so log-before-data), and the frame's
``rec_lsn`` is where a fuzzy checkpoint's redo must start.  Two
consequences are pinned here:

* owned frames are bounded.  A write that would take them past the
  pool's capacity less a small reserve is refused with
  ``TransactionTooLarge`` while the reserve still holds the frames its
  rollback needs, and the engine keeps serving: other sessions read
  tables larger than the pool, writers to the same table do not wait,
  and a reopen recovers the committed rows;
* a dropped table's frames take their ``rec_lsn`` with them, so the
  next CHECKPOINT's ``redo_lsn`` moves past the table's records, the
  WAL shrinks, and a clean close leaves nothing to redo.
"""

import os
import time

import pytest

from repro import Database
from repro.storage import BufferError_
from repro.types import TypeError_
from repro.wal import WAL_FILE, TransactionTooLarge, read_wal

PAGE_SIZE = 512
PAD = "x" * 30  # ≈ 9 rows a page


def _open(path, pages):
    return Database(buffer_pages=pages, page_size=PAGE_SIZE, data_dir=str(path))


def _loaded(path, pages):
    """A table of twice the pool's pages, loaded in writes the pool can
    take, with a primary key and a secondary index."""
    db = _open(path, pages)
    db.execute("CREATE TABLE s (k INT PRIMARY KEY, v INT, pad TEXT)")
    db.execute("CREATE INDEX sv ON s (v)")
    chunk = pages * 2  # ≈ a quarter of the pool's pages a write
    for lo in range(0, pages * 24, chunk):
        db.insert_rows("s", [(k, k, PAD) for k in range(lo, lo + chunk)])
    assert db.table("s").heap.num_pages >= 2 * pages
    return db


def _contents(db):
    return db.query("SELECT COUNT(*), SUM(v) FROM s").rows


def _still_serving(db, path, pages, before, refusals):
    """Nothing of the refused transaction is left, and the engine goes
    on: readers, a writer of the same table, the counter, a reopen."""
    assert db.txn.active_txn_ids() == []
    assert db.pool.owned == 0
    assert all(row["holder_txn"] == 0 for row in db.txn.lock_rows())
    info = db.table("s")
    for ix in info.indexes.values():
        assert sorted(ix.structure.items()) == sorted(
            (ix.key_of(row), rid) for rid, row in info.heap.scan()
        )
        ix.structure.validate()
    # another session reads a table larger than the pool
    assert db.create_session().query("SELECT COUNT(*), SUM(v) FROM s").rows == before
    # a writer to the same table commits without waiting
    db.txn.lock_timeout = 0.5
    start = time.monotonic()
    writer = db.create_session()
    assert writer.execute("UPDATE s SET v = -1 WHERE k = 0").rows == [(1,)]
    assert time.monotonic() - start < 0.5
    assert db.metrics_snapshot()["counters"]["transactions_too_large_total"] == refusals
    assert "# HELP repro_transactions_too_large_total" in db.metrics_snapshot("prom")
    db.close()
    with _open(path, pages) as reopened:
        assert reopened.query("SELECT v FROM s WHERE k = 0").rows == [(-1,)]
        count, total = before[0]
        assert _contents(reopened) == [(count, total - 1)]


@pytest.mark.parametrize("pages", [8, 16, 64])
def test_an_autocommit_update_of_twice_the_pool_is_refused(tmp_path, pages):
    db = _loaded(tmp_path, pages)
    before = _contents(db)
    with pytest.raises(TransactionTooLarge, match=f"buffer pool's {pages}"):
        db.execute("UPDATE s SET v = v + 1")
    assert _contents(db) == before
    _still_serving(db, tmp_path, pages, before, refusals=1)


def test_an_explicit_transaction_of_twice_the_pool_is_refused(tmp_path):
    pages = 16
    db = _loaded(tmp_path, pages)
    before = _contents(db)
    session = db.create_session()
    session.execute("BEGIN")
    session.execute("UPDATE s SET v = v + 1 WHERE k < 32")  # ≈ 4 pages
    with pytest.raises(TransactionTooLarge):
        for lo in range(10_000, 10_000 + pages * 16, 16):
            session.execute(
                "INSERT INTO s VALUES "
                + ", ".join(f"({k}, {k}, '{PAD}')" for k in range(lo, lo + 16))
            )
    assert session.txn is None  # the whole transaction rolled back
    session.execute("ROLLBACK")
    assert _contents(db) == before
    _still_serving(db, tmp_path, pages, before, refusals=1)


def test_a_resolved_transaction_owns_nothing_and_an_owned_page_is_not_written(tmp_path):
    db = _open(tmp_path, 32)
    db.execute("CREATE TABLE s (k INT PRIMARY KEY, v INT, pad TEXT)")
    assert db.pool.owned == 0
    session = db.create_session()
    for end in ("ROLLBACK", "COMMIT"):
        session.execute("BEGIN")
        session.execute(f"INSERT INTO s VALUES (1, 1, '{PAD}'), (2, 2, '{PAD}')")
        owned = session.txn.pages
        assert owned and db.pool.owned == len(owned)
        with pytest.raises(BufferError_, match="owned by active transaction"):
            db.pool.flush_page(owned[0])
        session.execute(end)
        assert db.pool.owned == 0
    db.execute(f"INSERT INTO s VALUES (3, 3, '{PAD}')")
    assert db.pool.owned == 0
    with pytest.raises(TypeError_):
        db.execute("INSERT INTO s VALUES (4, 'not an int', 'x')")
    assert db.pool.owned == 0
    assert db.query("SELECT k FROM s ORDER BY k").rows == [(1,), (2,), (3,)]
    db.close()


def test_a_dropped_table_leaves_no_redo_behind(tmp_path):
    wal = os.path.join(str(tmp_path), WAL_FILE)
    db = Database(data_dir=str(tmp_path))
    db.execute("CREATE TABLE gone (k INT PRIMARY KEY, v INT)")
    db.execute("CREATE TABLE kept (k INT PRIMARY KEY, v INT)")
    db.insert_rows("gone", [(k, k) for k in range(200)])
    last_of_gone = max(r.lsn for r in read_wal(wal)[0] if r.table == "gone")
    db.execute("DROP TABLE gone")
    for round_ in range(3):
        db.execute(f"INSERT INTO kept VALUES ({round_}, {round_})")
        size = os.path.getsize(wal)
        (_, redo_lsn, active), = db.execute("CHECKPOINT").rows
        assert active == 0
        assert redo_lsn > last_of_gone
        assert os.path.getsize(wal) < size
    db.close()
    with Database(data_dir=str(tmp_path)) as reopened:
        assert reopened.last_recovery.records_scanned == 0
        assert reopened.query("SELECT k FROM kept ORDER BY k").rows == [(0,), (1,), (2,)]
        assert not reopened.catalog.has_table("gone")
