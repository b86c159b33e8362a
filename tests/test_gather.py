"""The page decoder ≡ the record decoder, as properties.

The index nested-loop join's serving path fetches the RIDs of an outer
batch by page (``executor.pagedecode.gather_columns``) where the row
engine fetches them one ``heap.fetch`` at a time; the columnar
``SeqScan`` decodes spans of pages where ``HeapFile.scan`` decodes
record by record.  Whatever the schema, the NULLs, the state of the
pages and the order of the RIDs, each pair must agree — and a record
that does not line up with its schema is the same ``RecordError`` on
both sides.
"""

from datetime import date
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import TableInfo
from repro.executor import ExecContext, build_operator, pagedecode
from repro.executor.columnar import ColumnBatch
from repro.executor.pagedecode import GATHER_SPAN_PAGES, gather_columns
from repro.physical import PSeqScan
from repro.storage import (
    BufferPool,
    DiskManager,
    HeapError,
    HeapFile,
    PageGuard,
    RecordError,
    SlottedPage,
)
from repro.storage.page import PageError
from repro.types import DataType, schema_of

VALUES = {
    DataType.INT: st.integers(-(2**63), 2**63 - 1),
    DataType.FLOAT: st.floats(allow_nan=False),
    DataType.BOOL: st.booleans(),
    DataType.DATE: st.dates(),
    DataType.TEXT: st.text(max_size=12),
}


def make_heap(dtypes, page_size=256, pool_pages=8):
    schema = schema_of("t", *((f"c{i}", d) for i, d in enumerate(dtypes)))
    pool = BufferPool(DiskManager(page_size), pool_pages)
    return pool, HeapFile(pool, schema, "t")


def shrunk(row):
    """*row* with every TEXT value cut short and every other value kept:
    a record no longer than the one it replaces, so the update is in
    place and leaves dead bytes behind the record."""
    return tuple(v[: len(v) // 2] if isinstance(v, str) else v for v in row)


@st.composite
def heaps(draw, max_rows=120):
    """A heap of random rows — NULLs in half the schemas — with
    tombstones and in-place updates that shrank a record; the pool and
    the RID of every row ever inserted."""
    dtypes = draw(st.lists(st.sampled_from(list(VALUES)), min_size=1, max_size=6))
    nullable = draw(st.booleans())
    column = [
        st.one_of(st.none(), VALUES[d]) if nullable else VALUES[d]
        for d in dtypes
    ]
    rows = draw(st.lists(st.tuples(*column), min_size=1, max_size=max_rows))
    pool, heap = make_heap(dtypes)
    rids = [heap.insert(row) for row in rows]
    for i in draw(st.lists(st.integers(0, len(rids) - 1), max_size=20)):
        heap.delete(rids[i])
    for i in draw(st.lists(st.integers(0, len(rids) - 1), max_size=20)):
        row = heap.fetch(rids[i])
        if row is not None:
            assert heap.update(rids[i], shrunk(row)) == rids[i]
    return pool, heap, rids


@st.composite
def heaps_and_rids(draw):
    pool, heap, rids = draw(heaps())
    # repeats, pages crossed in arbitrary order
    picks = draw(st.lists(st.integers(0, len(rids) - 1), max_size=200))
    return pool, heap, [rids[i] for i in picks]


def count_fixes(pool):
    """Patch *pool* to record the page of every ``fix``."""
    fixed = []
    fix = pool.fix

    def counting(page_id):
        fixed.append(page_id[1])
        return fix(page_id)

    pool.fix = counting
    return fixed


def assert_same_rows(got, want):
    """Equal rows, each value of the native Python type ``want`` has."""
    assert got == want
    assert [[type(v) for v in row] for row in got] == [
        [type(v) for v in row] for row in want
    ]


@settings(max_examples=150, deadline=None)
@given(heaps_and_rids(), st.sampled_from([1, 2, 3, GATHER_SPAN_PAGES]))
def test_gather_equals_fetch(case, span):
    pool, heap, rids = case
    fetched = [heap.fetch(rid) for rid in rids]
    want = [row for row in fetched if row is not None]
    fixed = count_fixes(pool)
    # a span of a page or three: the RID list covers more pages than one
    with mock.patch.object(pagedecode, "GATHER_SPAN_PAGES", span):
        columns, live = gather_columns(heap, heap.schema, rids)
    assert live.tolist() == [
        i for i, row in enumerate(fetched) if row is not None
    ]
    assert_same_rows(ColumnBatch(heap.schema, columns, len(live)).to_rows(), want)
    # a validity mask on exactly the columns that hold a NULL
    assert [valid is not None for _, valid in columns] == [
        any(row[c] is None for row in want) for c in range(len(heap.schema))
    ]
    # one fix per distinct page, however the RIDs repeat or interleave
    assert sorted(fixed) == sorted({page_no for page_no, _ in rids})


def columnar_scan(heap, batch_size=ExecContext.DEFAULT_BATCH_SIZE):
    """A columnar ``SeqScan`` of *heap* run to the end: the operator and
    the batches it returned."""
    plan = PSeqScan(TableInfo("t", heap.schema, heap), "t")
    ctx = ExecContext(heap.pool, columnar=True, batch_size=batch_size)
    op = build_operator(plan, ctx)
    op.open()
    try:
        return op, list(iter(op.next_batch, None))
    finally:
        op.close()


@settings(max_examples=100, deadline=None)
@given(heaps(max_rows=300), st.integers(1, 64))
def test_columnar_scan_equals_heap_scan(case, span):
    pool, heap, _ = case
    want = list(heap.scan_rows())
    # the scan sizes its decode span to fill a batch of *batch_size* rows
    per_page = max(1, heap.pool.disk.page_size // heap.schema.estimated_row_bytes())
    fixed = count_fixes(pool)
    op, batches = columnar_scan(heap, batch_size=span * per_page)
    assert op._span == span
    assert all(isinstance(batch, ColumnBatch) for batch in batches)
    assert_same_rows([row for b in batches for row in b.to_rows()], want)
    # every page read, each once
    assert fixed == list(range(heap.num_pages))


@pytest.mark.parametrize("stretch", [-1, 1])
def test_a_record_that_does_not_line_up_raises_what_fetch_raises(stretch):
    pool, heap = make_heap([DataType.INT, DataType.TEXT])
    rids = [heap.insert((i, f"r{i}")) for i in range(20)]
    page_no, slot_no = rids[5]
    # the slot directory says the record is a byte shorter (longer) than
    # the bytes the schema reads
    with PageGuard(pool, (heap.file_id, page_no), write=True) as data:
        page = SlottedPage(data)
        offset, length = page._slot(slot_no)
        page._set_slot(slot_no, offset, length + stretch)
    with pytest.raises(RecordError) as fetch_error:
        heap.fetch(rids[5])
    with pytest.raises(RecordError) as scan_error:
        columnar_scan(heap)
    with pytest.raises(RecordError) as gather_error:
        gather_columns(heap, heap.schema, rids)
    assert (
        str(scan_error.value)
        == str(gather_error.value)
        == str(fetch_error.value)
    )


def test_gather_spans_more_pages_than_one_span():
    pool, heap = make_heap(
        [DataType.INT, DataType.TEXT, DataType.DATE], page_size=128
    )
    rows = [(i, f"r{i}", date(2020, 1, 1 + i % 28)) for i in range(1000)]
    rids = [heap.insert(row) for row in rows]
    assert heap.num_pages > 3 * GATHER_SPAN_PAGES
    # every page, back to front, each RID twice
    order = list(range(len(rids) - 1, -1, -1)) * 2
    fixed = count_fixes(pool)
    columns, live = gather_columns(heap, heap.schema, [rids[i] for i in order])
    assert live.tolist() == list(range(len(order)))
    got = ColumnBatch(heap.schema, columns, len(live)).to_rows()
    assert got == [rows[i] for i in order]
    assert len(fixed) == heap.num_pages == len(set(fixed))


def test_gather_of_nothing_and_of_tombstones_only():
    _, heap = make_heap([DataType.INT, DataType.FLOAT])
    rids = [heap.insert((i, i / 2)) for i in range(10)]
    for rid in rids:
        heap.delete(rid)
    for selection in ([], rids):
        columns, live = gather_columns(heap, heap.schema, selection)
        assert len(live) == 0
        assert ColumnBatch(heap.schema, columns, 0).to_rows() == []


def test_out_of_range_rids_raise_what_fetch_raises():
    _, heap = make_heap([DataType.INT])
    rids = [heap.insert((i,)) for i in range(40)]
    page_no = rids[-1][0]
    num_slots = 1 + max(slot for page, slot in rids if page == page_no)
    for bad in ((page_no, num_slots), (page_no, -1), (0, 10_000)):
        with pytest.raises(PageError) as fetch_error:
            heap.fetch(bad)
        with pytest.raises(PageError) as gather_error:
            gather_columns(heap, heap.schema, rids + [bad])
        assert str(gather_error.value) == str(fetch_error.value)
    for bad in ((heap.num_pages, 0), (-1, 0)):
        with pytest.raises(HeapError):
            heap.fetch(bad)
        with pytest.raises(HeapError):
            gather_columns(heap, heap.schema, rids + [bad])
