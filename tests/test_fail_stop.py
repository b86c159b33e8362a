"""A database that cannot go on refuses statements instead of losing them.

Two states refuse every later statement with an ``EngineError`` that
names the cause, through every entry (``execute``, ``query``,
``insert_rows``, ``analyze``, ``CHECKPOINT``):

* **closed** — ``close()`` checkpointed and closed the WAL, so a write
  acknowledged afterwards could never reach the disk;
* **stopped** — a rollback raised.  Its transaction stays active with
  its table locks and owned frames: releasing them would let
  uncommitted bytes reach the disk, which redo-only recovery cannot take
  back.  A reopen recovers exactly the committed prefix.

A write larger than the pool is neither: it is refused with
``TransactionTooLarge`` while the pool still has the frames its
rollback needs, and the engine keeps serving.
"""

import pytest

from repro import Database
from repro.engine import EngineError
from repro.wal import TransactionTooLarge, TxnManager


def _entries(db):
    """One call through each entry a program uses."""
    return {
        "execute": lambda: db.execute("INSERT INTO t VALUES (2, 20)"),
        "query": lambda: db.query("SELECT k FROM t"),
        "insert_rows": lambda: db.insert_rows("t", [(3, 30)]),
        "analyze": lambda: db.analyze("t"),
        "CHECKPOINT": lambda: db.execute("CHECKPOINT"),
        "checkpoint()": db.checkpoint,
        "session": lambda: db.create_session().execute("SELECT k FROM t"),
    }


def _durable(path, **kwargs):
    db = Database(data_dir=str(path), **kwargs)
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    db.execute("INSERT INTO t VALUES (1, 10)")
    return db


def test_a_closed_database_refuses_every_entry(tmp_path):
    db = _durable(tmp_path)
    db.close()
    for name, call in _entries(db).items():
        with pytest.raises(EngineError, match="closed"):
            call()
    db.close()  # closing twice is harmless
    with Database(data_dir=str(tmp_path)) as reopened:
        assert reopened.query("SELECT k FROM t").rows == [(1,)]


def test_a_closed_in_memory_database_refuses_too():
    db = Database()
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    db.close()
    with pytest.raises(EngineError, match="closed"):
        db.execute("INSERT INTO t VALUES (2, 20)")


def _failing_rollback(monkeypatch):
    def rollback(self, txn, catalog):
        raise OSError("injected rollback failure")

    monkeypatch.setattr(TxnManager, "rollback", rollback)


@pytest.mark.parametrize("how", ["failed statement", "ROLLBACK"])
def test_a_rollback_that_raises_stops_the_engine(tmp_path, monkeypatch, how):
    db = _durable(tmp_path)
    db.execute("INSERT INTO t VALUES (2, 20)")
    session = db.create_session()
    session.execute("BEGIN")
    session.execute("INSERT INTO t VALUES (3, 30)")
    _failing_rollback(monkeypatch)
    with pytest.raises(EngineError, match="rollback of transaction .* failed") as failed:
        if how == "ROLLBACK":
            session.execute("ROLLBACK")
        else:
            session.execute("INSERT INTO t VALUES (4, 'x')")  # mistyped
    assert "injected rollback failure" in str(failed.value)
    leaked = db.txn.active_txn_ids()
    assert len(leaked) == 1  # kept, with its locks and vetoes
    for name, call in _entries(db).items():
        with pytest.raises(EngineError, match="rollback of transaction .* failed"):
            call()
    monkeypatch.undo()
    db.close()
    with pytest.raises(EngineError, match="closed"):
        db.query("SELECT k FROM t")
    with Database(data_dir=str(tmp_path)) as reopened:
        assert sorted(reopened.query("SELECT k, v FROM t").rows) == [(1, 10), (2, 20)]
        reopened.execute("INSERT INTO t VALUES (3, 30)")
        assert reopened.query("SELECT COUNT(*) FROM t").rows == [(3,)]


def test_a_write_larger_than_the_pool_is_refused_and_the_engine_keeps_serving(tmp_path):
    """The write would own more heap pages than the pool can spare, so
    it is refused; its rollback finds the frames it needs, and the
    primary key's pages among them."""
    db = _durable(tmp_path, buffer_pages=16)
    with pytest.raises(TransactionTooLarge, match="buffer pool's 16"):
        db.insert_rows("t", [(100 + i, i) for i in range(4000)])
    assert db.txn.active_txn_ids() == [] and db.pool.owned == 0
    assert db.query("SELECT k, v FROM t").rows == [(1, 10)]
    db.insert_rows("t", [(100 + i, i) for i in range(100)])
    assert db.query("SELECT COUNT(*) FROM t").rows == [(101,)]
    db.close()
    with Database(buffer_pages=16, data_dir=str(tmp_path)) as reopened:
        assert reopened.query("SELECT COUNT(*) FROM t").rows == [(101,)]
