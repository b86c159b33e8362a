"""``gather_columns`` ≡ ``HeapFile.fetch``, as a property.

The index nested-loop join's serving path fetches the RIDs of an outer
batch by page (``executor.pagedecode.gather_columns``) where the row
engine fetches them one ``heap.fetch`` at a time.  Whatever the schema,
the state of the pages and the order of the RIDs, the two must agree.
"""

from datetime import date
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.executor import pagedecode
from repro.executor.columnar import ColumnBatch
from repro.executor.pagedecode import GATHER_SPAN_PAGES, gather_columns
from repro.storage import BufferPool, DiskManager, HeapError, HeapFile
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
def heaps_and_rids(draw):
    dtypes = draw(st.lists(st.sampled_from(list(VALUES)), min_size=1, max_size=6))
    nullable = draw(st.booleans())
    column = [
        st.one_of(st.none(), VALUES[d]) if nullable else VALUES[d]
        for d in dtypes
    ]
    rows = draw(st.lists(st.tuples(*column), min_size=1, max_size=120))
    pool, heap = make_heap(dtypes)
    rids = [heap.insert(row) for row in rows]
    # tombstones, and in-place updates that shrank a record
    for i in draw(st.lists(st.integers(0, len(rids) - 1), max_size=20)):
        heap.delete(rids[i])
    for i in draw(st.lists(st.integers(0, len(rids) - 1), max_size=20)):
        row = heap.fetch(rids[i])
        if row is not None:
            assert heap.update(rids[i], shrunk(row)) == rids[i]
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


@settings(max_examples=150, deadline=None)
@given(heaps_and_rids(), st.sampled_from([1, 2, 3, GATHER_SPAN_PAGES]))
def test_gather_equals_fetch(case, span):
    pool, heap, rids = case
    fetched = [heap.fetch(rid) for rid in rids]
    want = [row for row in fetched if row is not None]
    fixed = count_fixes(pool)
    # a span of a page or three: the RID list covers more pages than one
    with mock.patch.object(pagedecode, "GATHER_SPAN_PAGES", span):
        got = gather_columns(heap, heap.schema, rids)
    pages = {page_no for page_no, _ in rids}
    if any(v is None for row in want for v in row):
        # a NULL anywhere in the selection: the caller decodes per record
        assert got is None
        assert len(fixed) <= len(pages)
        return
    columns, live = got
    assert live.tolist() == [
        i for i, row in enumerate(fetched) if row is not None
    ]
    rows = ColumnBatch(heap.schema, columns, len(live)).to_rows()
    assert rows == want
    # native Python values, not numpy scalars
    assert [[type(v) for v in row] for row in rows] == [
        [type(v) for v in row] for row in want
    ]
    # one fix per distinct page, however the RIDs repeat or interleave
    assert sorted(fixed) == sorted(pages)


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
