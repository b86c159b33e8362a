"""A failed WAL append fails its statement and leaves no trace.

A row write is logged, then applied: the heap appends the record (an
ALLOC before the page it names exists) and only then changes the page,
and the indexes follow.  The hypothesis property below makes the Nth
ALLOC, INSERT, UPDATE or DELETE append raise ``OSError`` in a run of
random INSERT, UPDATE (in place, and TEXT growth that moves the row)
and DELETE statements on a durable table with 0–2 secondary indexes at
1 KiB pages, so inserts allocate pages.  The failed statement must
raise a ``TxnError`` caused by the ``OSError`` and leave the rows it
found, every index holding exactly the heap's ``(key, rid)`` multiset
and finding each row once; the next write must be accepted, and a
reopen of the database abandoned without ``close()`` must show exactly
the committed rows.
"""

import shutil
import tempfile
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.wal import TxnError, WalRecordType

PAGE_SIZE = 1024
SEED_ROWS = 50
ROW_RECORDS = {
    WalRecordType.ALLOC,
    WalRecordType.INSERT,
    WalRecordType.UPDATE,
    WalRecordType.DELETE,
}
INDEXES = ("CREATE INDEX ix_v ON t (v)", "CREATE INDEX ix_sv ON t (s, v)")

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 4), st.integers(1, 400)),
        st.tuples(st.just("bump"), st.integers(1, SEED_ROWS)),
        st.tuples(
            st.just("grow"), st.integers(0, SEED_ROWS - 1), st.integers(40, 400)
        ),
        st.tuples(st.just("shrink"), st.integers(0, SEED_ROWS - 1)),
        st.tuples(st.just("delete"), st.integers(0, SEED_ROWS - 1), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=4,
)


def open_db(data_dir):
    return Database(data_dir=data_dir, page_size=PAGE_SIZE)


def statement(step, op):
    kind = op[0]
    if kind == "insert":
        keys = range(1000 + 10 * step, 1000 + 10 * step + op[1])
        return "INSERT INTO t VALUES " + ", ".join(
            f"({k}, {k}, 'n', '{'p' * op[2]}')" for k in keys
        )
    if kind == "bump":
        return f"UPDATE t SET v = v + 1000 WHERE k < {op[1]}"
    if kind == "grow":
        return f"UPDATE t SET s = '{'g' * op[2]}' WHERE k = {op[1]}"
    if kind == "shrink":
        return f"UPDATE t SET s = 'x' WHERE k BETWEEN {op[1]} AND {op[1] + 2}"
    return f"DELETE FROM t WHERE k BETWEEN {op[1]} AND {op[1] + op[2]}"


class FailingAppend:
    """Stands in for ``writer.append``: the *nth* ALLOC, INSERT, UPDATE or
    DELETE raises ``OSError`` on entry, before it takes an LSN."""

    def __init__(self, writer, nth):
        self.writer = writer
        self.append = writer.append
        self.left = nth
        self.failed = None
        writer.append = self

    def disarm(self):
        del self.writer.append

    def __call__(self, rec_type, *args, **kwargs):
        if rec_type in ROW_RECORDS and self.failed is None:
            self.left -= 1
            if self.left == 0:
                self.failed = rec_type
                raise OSError(28, "No space left on device")
        return self.append(rec_type, *args, **kwargs)


def assert_consistent(info):
    """Every index holds exactly the heap's ``(key, rid)`` multiset."""
    rows = list(info.heap.scan())
    assert info.num_rows == len(rows)
    for ix in info.indexes.values():
        assert Counter(ix.structure.items()) == Counter(
            (ix.key_of(row), rid) for rid, row in rows
        )
        ix.structure.validate()
    return rows


def all_rows(db):
    return db.query("SELECT k, v, s, p FROM t ORDER BY k").rows


@settings(max_examples=20, deadline=None)
@given(
    indexes=st.integers(0, len(INDEXES)),
    ops=ops,
    nth=st.integers(1, 8),
    more=st.sampled_from([1, 2950]),
)
# an in-place UPDATE of an indexed column, its third record failing
@example(indexes=1, ops=[("bump", 10)], nth=3, more=2950)
# a row that grows past its slot and moves: its INSERT record fails
@example(indexes=2, ops=[("grow", 5, 300)], nth=3, more=1)
# an insert that needs a new page: its ALLOC record fails
@example(indexes=0, ops=[("insert", 1, 900)], nth=1, more=1)
def test_a_failed_append_changes_nothing(indexes, ops, nth, more):
    data_dir = tempfile.mkdtemp(prefix="failed-append-")
    try:
        db = open_db(data_dir)
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, s TEXT, p TEXT)")
        for sql in INDEXES[:indexes]:
            db.execute(sql)
        db.insert_rows(
            "t", [(k, k, "s" * (k % 30 + 1), "") for k in range(SEED_ROWS)]
        )
        info = db.table("t")
        armed = FailingAppend(db.txn.writer, nth)
        for step, op in enumerate(ops):
            before = list(info.heap.scan())
            try:
                db.execute(statement(step, op))
            except TxnError as exc:
                assert isinstance(exc.__cause__, OSError)
                assert armed.failed is not None
                assert list(info.heap.scan()) == before
                assert db.pool.owned == 0
                break
            assert armed.failed is None
        armed.disarm()
        for rid, row in assert_consistent(info):
            for ix in info.indexes.values():
                assert ix.structure.search(ix.key_of(row)).count(rid) == 1

        # the next write is accepted, its first row on a page of its own,
        # and point queries find each row once
        db.insert_rows(
            "t", [(k, k, "m", "p" * 900 if k == 5000 else "") for k in range(5000, 5000 + more)]
        )
        db.execute("ANALYZE t")
        assert_consistent(info)
        committed = all_rows(db)
        for v in range(12):
            assert sorted(db.query(f"SELECT k, v FROM t WHERE v = {v}").rows) == [
                (row[0], v) for row in committed if row[1] == v
            ]

        db2 = open_db(data_dir)  # db abandoned without close(): a crash
        assert all_rows(db2) == committed
        assert_consistent(db2.table("t"))
        db2.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
