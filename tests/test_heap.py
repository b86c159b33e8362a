"""Tests for heap files."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import BufferPool, DiskManager, HeapError, HeapFile
from repro.types import DataType, schema_of


def make_heap(pool_pages=16, page_size=512):
    disk = DiskManager(page_size)
    pool = BufferPool(disk, pool_pages)
    schema = schema_of("t", ("id", DataType.INT), ("name", DataType.TEXT))
    return disk, pool, HeapFile(pool, schema, "t")


class TestHeapBasics:
    def test_insert_fetch(self):
        _, _, heap = make_heap()
        rid = heap.insert((1, "one"))
        assert heap.fetch(rid) == (1, "one")
        assert heap.num_rows == 1

    def test_insert_many_and_scan(self):
        _, _, heap = make_heap()
        rows = [(i, f"n{i}") for i in range(100)]
        for row in rows:
            heap.insert(row)
        assert list(heap.scan_rows()) == rows
        assert heap.num_rows == 100
        assert heap.num_pages > 1  # spilled over several 512B pages

    def test_rids_are_stable_and_unique(self):
        _, _, heap = make_heap()
        rids = [heap.insert((i, "x")) for i in range(50)]
        assert len(set(rids)) == 50
        for i, rid in enumerate(rids):
            assert heap.fetch(rid) == (i, "x")

    def test_delete(self):
        _, _, heap = make_heap()
        rids = [heap.insert((i, "x")) for i in range(10)]
        assert heap.delete(rids[3]) is True
        assert heap.fetch(rids[3]) is None
        assert heap.delete(rids[3]) is False
        assert heap.num_rows == 9
        assert len(list(heap.scan_rows())) == 9

    def test_update_in_place_keeps_rid(self):
        _, _, heap = make_heap()
        rid = heap.insert((1, "abcdef"))
        new_rid = heap.update(rid, (1, "ab"))
        assert new_rid == rid
        assert heap.fetch(rid) == (1, "ab")

    def test_update_grow_relocates(self):
        _, _, heap = make_heap()
        rid = heap.insert((1, "ab"))
        heap.insert((2, "cd"))
        new_rid = heap.update(rid, (1, "a much longer name"))
        assert heap.fetch(new_rid) == (1, "a much longer name")
        assert heap.num_rows == 2

    def test_null_values(self):
        _, _, heap = make_heap()
        rid = heap.insert((None, None))
        assert heap.fetch(rid) == (None, None)

    def test_scan_yields_rids(self):
        _, _, heap = make_heap()
        rids = [heap.insert((i, "x")) for i in range(20)]
        scanned = [rid for rid, _ in heap.scan()]
        assert scanned == rids

    def test_type_validation_on_insert(self):
        from repro.types import TypeError_

        _, _, heap = make_heap()
        with pytest.raises(TypeError_):
            heap.insert(("not-int", "x"))

    def test_oversized_record_rejected(self):
        _, _, heap = make_heap()
        with pytest.raises(HeapError):
            heap.insert((1, "x" * 600))  # page is 512B

    def test_bad_rid(self):
        _, _, heap = make_heap()
        with pytest.raises(HeapError):
            heap.fetch((99, 0))

    def test_data_survives_pool_clear(self):
        _, pool, heap = make_heap(pool_pages=4)
        rows = [(i, f"r{i}") for i in range(200)]
        for row in rows:
            heap.insert(row)
        pool.clear()
        assert list(heap.scan_rows()) == rows

    def test_cold_scan_io_equals_pages(self):
        disk, pool, heap = make_heap(pool_pages=64)
        for i in range(300):
            heap.insert((i, "abc"))
        pool.clear()
        reads = disk.stats.reads
        list(heap.scan_rows())
        assert disk.stats.reads - reads == heap.num_pages


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 1000)),
            st.tuples(st.just("delete"), st.integers(0, 40)),
        ),
        max_size=80,
    )
)
def test_heap_model_based(ops):
    """Insert/delete sequences match a dict model keyed by RID."""
    _, _, heap = make_heap(pool_pages=32)
    model = {}
    rids = []
    for op, arg in ops:
        if op == "insert":
            rid = heap.insert((arg, f"v{arg}"))
            model[rid] = (arg, f"v{arg}")
            rids.append(rid)
        elif rids:
            rid = rids[arg % len(rids)]
            heap.delete(rid)
            model.pop(rid, None)
    assert dict(heap.scan()) == model
    assert heap.num_rows == len(model)
