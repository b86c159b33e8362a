"""Cached page decodes ≡ fresh ones.

A columnar ``SeqScan`` takes each heap page's decoded columns off its
buffer frame (``BufferPool.fix_decoded`` through
``pagedecode.page_columns``) and decodes only the pages whose frames
hold none.  The cache is right only if every way a page's bytes change
drops what was decoded from them, and a frame's columns never outlive
the frame.

Hypothesis drives one durable ``Database`` with an 8–16-frame pool —
small enough that scans evict — through random INSERT, UPDATE (rows
shrunk in place, grown until they relocate, values changed), DELETE,
BEGIN/COMMIT/ROLLBACK, CHECKPOINT and close-and-reopen steps.  After
every step two columnar scans of the table (the second warm) must each
return exactly ``heap.scan()``: the same rows, in the same order, every
value of the same Python type.  The unit tests below pin the rest: a
write guard whose body raised drops the value, a cached array refuses an
in-place write, a decode overtaken by a write is not kept, eviction,
``clear`` and ``discard_file`` take the value with the frame while a
write-back leaves it, the two ``metrics_snapshot`` gauges count it, and
scanning threads racing a writer leave no stale decode behind.
"""

import shutil
import sys
import tempfile
import threading
from datetime import date

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Database
from repro.catalog import TableInfo
from repro.executor import ExecContext, build_operator
from repro.executor.pagedecode import page_columns
from repro.physical import PSeqScan
from repro.storage import BufferPool, DiskManager, HeapFile, PageGuard
from repro.types import DataType, schema_of

PAGE_SIZE = 512
SEED_ROWS = 80

ints = st.none() | st.integers(-(10**6), 10**6)
floats = st.none() | st.floats(-1e6, 1e6, allow_nan=False)
texts = st.none() | st.text(alphabet="abcxyz", max_size=20)
dates = st.none() | st.dates(date(1990, 1, 1), date(2030, 12, 31))
bools = st.none() | st.booleans()
keys = st.integers(0, SEED_ROWS + 20)


def _sql(value):
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (str, date)):
        return f"'{value}'"
    return repr(value)


def scan_rows(info):
    """A columnar ``SeqScan`` of *info*'s heap, run to the end, as rows."""
    ctx = ExecContext(info.heap.pool, columnar=True)
    op = build_operator(PSeqScan(info, info.name), ctx)
    op.open()
    try:
        return [row for batch in iter(op.next_batch, None) for row in batch.to_rows()]
    finally:
        op.close()


def assert_same_rows(got, want):
    """Equal rows in equal order, each value of the type ``want`` has."""
    assert got == want
    assert [[type(v) for v in row] for row in got] == [
        [type(v) for v in row] for row in want
    ]


class DecodedPagesMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.data_dir = tempfile.mkdtemp(prefix="decoded-pages-")
        self.frames = 8
        self.db = None
        self.in_txn = False
        self.txn_writes = 0

    def _open(self):
        return Database(
            buffer_pages=self.frames,
            page_size=PAGE_SIZE,
            data_dir=self.data_dir,
            columnar=True,
        )

    def teardown(self):
        if self.db is not None:
            self.db.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    @initialize(frames=st.integers(8, 16))
    def seed(self, frames):
        self.frames = frames
        self.db = self._open()
        self.db.execute(
            "CREATE TABLE t (id INT, v INT, f FLOAT, s TEXT, d DATE, ok BOOL)"
        )
        rows = [
            (
                i,
                None if i % 7 == 0 else i * 3,
                i / 4,
                None if i % 5 == 0 else f"r{i}",
                date(2000, 1, 1 + i % 28),
                None if i % 3 == 0 else i % 2 == 0,
            )
            for i in range(SEED_ROWS)
        ]
        # a second table: scanning it pushes t's frames out of the pool
        self.db.execute("CREATE TABLE other (id INT, s TEXT)")
        others = [(i, "x" * 40) for i in range(120)]
        # loaded a few pages a statement: under no-steal a statement's
        # dirty pages stay in the pool until it commits
        for lo in range(0, 120, 20):
            self.db.insert_rows("t", rows[lo : lo + 20])
            self.db.insert_rows("other", others[lo : lo + 20])

    @invariant()
    def warm_scan_is_the_heap(self):
        if self.db is None:
            return  # before seed()
        info = self.db.table("t")
        want = list(info.heap.scan_rows())
        stats = self.db.pool.stats
        assert_same_rows(scan_rows(info), want)
        decoded0 = stats.decoded_hits + stats.decoded_misses
        fixes0 = stats.hits + stats.misses
        assert_same_rows(scan_rows(info), want)
        # one fix a page, every one of them through the decode cache
        assert stats.hits + stats.misses - fixes0 == info.heap.num_pages
        assert stats.decoded_hits + stats.decoded_misses - decoded0 == (
            info.heap.num_pages
        )

    # -- writes ------------------------------------------------------------

    def _write(self, sql):
        self.db.execute(sql)
        if self.in_txn:
            self.txn_writes += 1

    def _may_write(self):
        # no-steal: an open transaction's dirty pages stay in the pool, so
        # a transaction is kept short enough for the smallest pool
        return not self.in_txn or self.txn_writes < 2

    @precondition(_may_write)
    @rule(row=st.tuples(keys, ints, floats, texts, dates, bools))
    def insert(self, row):
        self._write(f"INSERT INTO t VALUES ({', '.join(_sql(v) for v in row)})")

    @precondition(_may_write)
    @rule(
        key=keys,
        v=st.integers(-(10**6), 10**6),
        f=st.floats(-1e6, 1e6, allow_nan=False),
    )
    def update_value(self, key, v, f):
        """In place (``SET x = NULL`` is not SQL this engine types)."""
        self._write(f"UPDATE t SET v = {_sql(v)}, f = {_sql(f)} WHERE id = {key}")

    @precondition(_may_write)
    @rule(key=keys)
    def update_shrink(self, key):
        """In place: the record gets shorter and leaves dead bytes."""
        self._write(f"UPDATE t SET s = 'z' WHERE id = {key}")

    @precondition(_may_write)
    @rule(key=keys, length=st.integers(150, 300))
    def update_grow(self, key, length):
        """The row no longer fits its page and moves to another one."""
        self._write(f"UPDATE t SET s = '{'y' * length}' WHERE id = {key}")

    @precondition(_may_write)
    @rule(low=keys, span=st.integers(0, 8))
    def delete(self, low, span):
        self._write(f"DELETE FROM t WHERE id BETWEEN {low} AND {low + span}")

    @rule()
    def scan_other(self):
        self.db.query("SELECT COUNT(*) FROM other WHERE s <> 'q'")

    # -- transactions ------------------------------------------------------

    @precondition(lambda self: not self.in_txn)
    @rule()
    def begin(self):
        self.db.execute("BEGIN")
        self.in_txn = True
        self.txn_writes = 0

    @precondition(lambda self: self.in_txn)
    @rule()
    def commit(self):
        self.db.execute("COMMIT")
        self.in_txn = False

    @precondition(lambda self: self.in_txn)
    @rule()
    def rollback(self):
        self.db.execute("ROLLBACK")
        self.in_txn = False

    # -- durability --------------------------------------------------------

    @precondition(lambda self: not self.in_txn)
    @rule()
    def checkpoint(self):
        self.db.execute("CHECKPOINT")

    @precondition(lambda self: not self.in_txn)
    @rule()
    def reopen(self):
        self.db.close()
        self.db = self._open()


DecodedPagesMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=15, deadline=None
)
TestDecodedPagesModel = DecodedPagesMachine.TestCase


# -- the frame's value, unit by unit -----------------------------------------


def make_heap(rows=60, pool_pages=8):
    schema = schema_of("t", ("a", DataType.INT), ("s", DataType.TEXT))
    pool = BufferPool(DiskManager(256), pool_pages)
    heap = HeapFile(pool, schema, "t")
    for i in range(rows):
        heap.insert((i, f"r{i}"))
    return pool, heap


def cached(pool, heap, page_no):
    frame = pool._frames.get((heap.file_id, page_no))
    return None if frame is None else frame.derived


def test_a_second_scan_is_served_by_the_frames():
    pool, heap = make_heap(rows=30)
    assert heap.num_pages <= 8  # resident: no eviction between the scans
    info = TableInfo("t", heap.schema, heap)
    first = scan_rows(info)
    hits, misses = pool.stats.hits, pool.stats.misses
    assert pool.stats.decoded_misses == heap.num_pages
    assert pool.stats.decoded_hits == 0
    assert scan_rows(info) == first
    assert pool.stats.decoded_hits == heap.num_pages
    assert pool.stats.decoded_misses == heap.num_pages
    # a decoded hit is an ordinary buffer hit
    assert (pool.stats.hits - hits, pool.stats.misses - misses) == (
        heap.num_pages,
        0,
    )


def test_a_write_guard_whose_body_raises_drops_the_value():
    pool, heap = make_heap(rows=30)
    page_columns(heap, [0])
    assert cached(pool, heap, 0)
    with pytest.raises(RuntimeError):
        with PageGuard(pool, (heap.file_id, 0), write=True):
            raise RuntimeError("the write failed half way")
    assert cached(pool, heap, 0) is None


@pytest.mark.parametrize("how", ["guard", "unfix_dirty"])
def test_every_write_fix_drops_the_value(how):
    pool, heap = make_heap(rows=30)
    page_columns(heap, [0])
    page_id = (heap.file_id, 0)
    if how == "guard":
        with PageGuard(pool, page_id, write=True):
            pass
    else:
        pool.fix(page_id)
        pool.unfix(page_id, dirty=True)
    assert cached(pool, heap, 0) is None


def test_a_cached_array_refuses_an_in_place_write():
    pool, heap = make_heap(rows=30)
    (page,) = page_columns(heap, [0])
    assert cached(pool, heap, 0) is page
    for data, valid in page:
        assert not data.flags.writeable
        with pytest.raises(ValueError):
            data[0] = data[1]
        assert valid is None


def test_each_page_keeps_its_own_copy():
    """A page's arrays are its own, not views into the span they were
    decoded in, so a frame holds one page's columns and no more."""
    pool, heap = make_heap(rows=30)
    pages = page_columns(heap, range(heap.num_pages))
    for page in pages:
        for data, _ in page:
            assert data.base is None


def test_a_decode_overtaken_by_a_write_is_not_kept():
    pool, heap = make_heap(rows=30)
    page_id = (heap.file_id, 0)

    def decode(raws):
        # a writer gets in between the copy and the store
        with PageGuard(pool, page_id, write=True):
            pass
        return [("stale",)] * len(raws)

    assert pool.fix_decoded([page_id], decode) == [("stale",)]
    assert cached(pool, heap, 0) is None


def test_eviction_clear_and_discard_take_the_value_and_writeback_keeps_it():
    pool, heap = make_heap(rows=30)
    page_columns(heap, [0])
    page_id = (heap.file_id, 0)
    # a write-back does not change the bytes
    pool.fix(page_id)
    pool.unfix(page_id, dirty=True)
    page_columns(heap, [0])
    assert pool.flush_page(page_id)
    assert cached(pool, heap, 0)
    pool.clear()
    assert not pool.contains(page_id)
    # eviction: the frame comes back read from disk, with no value
    page_columns(heap, [0])
    other = HeapFile(pool, heap.schema, "u")
    for i in range(200):
        other.insert((i, "x" * 20))
    assert not pool.contains(page_id)
    page_columns(heap, [0])
    assert cached(pool, heap, 0)
    pool.discard_file(heap.file_id)
    assert not pool.contains(page_id)


def test_the_gauges_count_decoded_hits_and_misses():
    db = Database(buffer_pages=64)
    db.execute("CREATE TABLE t (a INT, s TEXT)")
    db.insert_rows("t", [(i, f"r{i}") for i in range(500)])
    pages = db.table("t").heap.num_pages
    db.query("SELECT * FROM t")
    db.query("SELECT * FROM t")
    section = db.metrics_snapshot()["buffer_pool"]
    assert (section["decoded_misses"], section["decoded_hits"]) == (pages, pages)
    text = db.metrics_snapshot(format="prom")
    assert f"repro_buffer_pool_decoded_hits {pages}\n" in text
    assert f"repro_buffer_pool_decoded_misses {pages}\n" in text
    # a write to one page costs that page, and only it, a decode
    db.execute("UPDATE t SET s = 'q' WHERE a = 0")
    db.query("SELECT * FROM t")
    section = db.metrics_snapshot()["buffer_pool"]
    assert (section["decoded_misses"], section["decoded_hits"]) == (
        pages + 1,
        2 * pages - 1,
    )


def test_nulls_keep_their_masks_per_page():
    schema = schema_of("t", ("a", DataType.INT), ("b", DataType.FLOAT))
    pool = BufferPool(DiskManager(256), 8)
    heap = HeapFile(pool, schema, "t")
    for i in range(40):
        heap.insert((i, None if i < 5 else float(i)))
    pages = page_columns(heap, range(heap.num_pages))
    # only the first page holds a NULL: only it carries a mask
    masks = [page[1][1] for page in pages]
    assert masks[0] is not None and not masks[0].all()
    assert all(mask is None for mask in masks[1:])
    assert np.concatenate([page[1][0] for page in pages])[5:].tolist() == [
        float(i) for i in range(5, 40)
    ]


def test_readers_racing_a_writer_never_keep_a_stale_decode():
    """Five scanning threads against one writer on a two-core host, with
    a short switch interval: whatever interleaving of copy, decode,
    write and store happened, once the writer is done a scan served from
    the frames is the heap."""
    pool, heap = make_heap(rows=0, pool_pages=64)
    # same-width values throughout: every update is in place
    rids = [heap.insert((0, f"v{i:04d}")) for i in range(120)]
    pages = range(heap.num_pages)
    done = threading.Event()
    errors = []

    def read():
        try:
            while not done.is_set():
                page_columns(heap, pages)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    def write():
        try:
            for version in range(1, 200):
                for i in range(version % 7, len(rids), 7):
                    heap.update(rids[i], (version, f"v{i:04d}"))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=read) for _ in range(5)]
        writer = threading.Thread(target=write)
        for thread in readers + [writer]:
            thread.start()
        writer.join(timeout=60)
        done.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert not any(thread.is_alive() for thread in readers)
    assert errors == []
    info = TableInfo("t", heap.schema, heap)
    hits = pool.stats.decoded_hits
    assert_same_rows(scan_rows(info), list(heap.scan_rows()))
    assert_same_rows(scan_rows(info), list(heap.scan_rows()))
    assert pool.stats.decoded_hits > hits
