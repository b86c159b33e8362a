"""Data directories written while the engine still had a hash index.

The durable formats outlive the structure: a WAL's DDL record carries
the statement text (``… USING hash``) and a checkpoint's index metadata
carries ``"kind": "hash"``.  Both must open to a table whose index is a
B+-tree, answers like a heap walk, and is written back as ``btree``.
"""

import json
import os

import pytest

from repro import Database
from repro.index import BPlusTree
from repro.wal import (
    WAL_FILE,
    WalRecordType,
    checkpoint,
    load_checkpoint,
    read_wal,
)

#: wide enough (~40 pages) that a probe of ``hx`` beats walking the heap
ROWS = [
    (i, None if i % 9 == 8 else (i * 7) % 500, "p" * 60) for i in range(2000)
]
DDL = "CREATE TABLE t (id INT, k INT, pad TEXT)"


def check_opened(db):
    """``hx`` is a B+-tree holding every row (NULL keys too), and the
    three predicate shapes a hash index could not all serve agree with a
    walk of the heap."""
    info = db.table("t")
    index = info.index_on("k")
    assert index.name == "hx"
    assert isinstance(index.structure, BPlusTree)
    index.structure.validate()
    heap = [row for _, row in info.heap.scan()]
    assert sorted(heap) == ROWS
    assert index.structure.num_entries == len(ROWS)
    db.execute("ANALYZE t")
    for where, matches, through_index in [
        ("k = 21", lambda k: k == 21, True),
        ("k BETWEEN 10 AND 12", lambda k: k is not None and 10 <= k <= 12, True),
        ("k IS NULL", lambda k: k is None, False),
    ]:
        result = db.query(f"SELECT * FROM t WHERE {where}")
        assert sorted(result.rows) == [r for r in ROWS if matches(r[1])], where
        assert ("via hx:btree" in result.plan.pretty()) == through_index, where


def next_checkpoint_kinds(db, data_dir):
    db.checkpoint()
    meta, _pages = load_checkpoint(data_dir)
    return [ix["kind"] for t in meta["tables"] for ix in t["indexes"]]


def test_wal_with_using_hash_ddl_recovers_to_a_btree(tmp_path):
    data_dir = str(tmp_path / "db")
    db = Database(data_dir=data_dir)
    db.execute(DDL)
    db.execute("CREATE INDEX hx ON t (k) USING hash")
    for start in range(0, len(ROWS), 500):
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(
                f"({i}, {'NULL' if k is None else k}, '{pad}')"
                for i, k, pad in ROWS[start : start + 500]
            )
        )
    # abandoned without close(): no checkpoint, recovery replays the log
    records, _, _ = read_wal(os.path.join(data_dir, WAL_FILE))
    ddl = [
        json.loads(r.payload)["sql"]
        for r in records
        if r.type is WalRecordType.DDL
    ]
    assert "CREATE INDEX hx ON t (k) USING hash" in ddl

    reopened = Database(data_dir=data_dir)
    assert not reopened.last_recovery.checkpoint_found
    assert reopened.last_recovery.indexes_rebuilt == 1
    check_opened(reopened)
    assert next_checkpoint_kinds(reopened, data_dir) == ["btree"]
    reopened.close()


def test_checkpoint_that_says_kind_hash_loads_as_a_btree(tmp_path, monkeypatch):
    data_dir = str(tmp_path / "db")
    db = Database(data_dir=data_dir)
    db.execute(DDL)
    db.insert_rows("t", ROWS)
    db.execute("CREATE INDEX hx ON t (k)")

    real = checkpoint.collect_meta

    def as_written_before(*args, **kwargs):
        meta = real(*args, **kwargs)
        for table in meta["tables"]:
            for ix in table["indexes"]:
                ix["kind"] = "hash"
        return meta

    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "collect_meta", as_written_before)
        db.close()  # checkpoints, empties the WAL
    meta, _pages = load_checkpoint(data_dir)
    assert [ix["kind"] for ix in meta["tables"][0]["indexes"]] == ["hash"]

    reopened = Database(data_dir=data_dir)
    assert reopened.last_recovery.checkpoint_found
    check_opened(reopened)
    assert next_checkpoint_kinds(reopened, data_dir) == ["btree"]
    reopened.close()


@pytest.mark.parametrize("using", ["", " USING btree", " USING hash"])
def test_every_spelling_builds_the_same_index(using):
    db = Database()
    db.execute(DDL)
    db.insert_rows("t", ROWS)
    db.execute(f"CREATE INDEX hx ON t (k){using}")
    check_opened(db)
