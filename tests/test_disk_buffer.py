"""Tests for the simulated disk and the buffer pool."""

import pytest

from repro.storage import (
    BufferError_,
    BufferPool,
    DiskError,
    DiskManager,
    PageGuard,
    Replacement,
)


def make_disk():
    return DiskManager(page_size=256)


class TestDisk:
    def test_create_and_allocate(self):
        disk = make_disk()
        f = disk.create_file("t")
        pid = disk.allocate_page(f)
        assert pid == (f, 0)
        assert disk.num_pages(f) == 1
        assert disk.stats.allocations == 1

    def test_read_write_roundtrip(self):
        disk = make_disk()
        f = disk.create_file("t")
        pid = disk.allocate_page(f)
        data = bytearray(b"a" * 256)
        disk.write_page(pid, bytes(data))
        assert disk.read_page(pid) == data

    def test_read_counts_and_sequential_detection(self):
        disk = make_disk()
        f = disk.create_file("t")
        for _ in range(3):
            disk.allocate_page(f)
        disk.read_page((f, 0))
        disk.read_page((f, 1))  # sequential
        disk.read_page((f, 0))  # random
        assert disk.stats.reads == 3
        assert disk.stats.seq_reads == 1

    def test_out_of_range(self):
        disk = make_disk()
        f = disk.create_file("t")
        with pytest.raises(DiskError):
            disk.read_page((f, 0))
        with pytest.raises(DiskError):
            disk.read_page((99, 0))

    def test_wrong_size_write(self):
        disk = make_disk()
        f = disk.create_file("t")
        pid = disk.allocate_page(f)
        with pytest.raises(DiskError):
            disk.write_page(pid, b"short")

    def test_drop_file(self):
        disk = make_disk()
        f = disk.create_file("t")
        disk.drop_file(f)
        with pytest.raises(DiskError):
            disk.num_pages(f)

    def test_stats_delta(self):
        disk = make_disk()
        f = disk.create_file("t")
        disk.allocate_page(f)
        before = disk.stats.snapshot()
        disk.read_page((f, 0))
        delta = disk.stats.delta(before)
        assert delta.reads == 1 and delta.writes == 0


def pool_with_pages(capacity, num_pages, policy=Replacement.LRU):
    disk = make_disk()
    pool = BufferPool(disk, capacity, policy)
    f = disk.create_file("t")
    for _ in range(num_pages):
        disk.allocate_page(f)
    return disk, pool, f


class TestBufferPool:
    def test_hit_and_miss_counting(self):
        disk, pool, f = pool_with_pages(4, 2)
        pool.fix((f, 0))
        pool.unfix((f, 0))
        pool.fix((f, 0))
        pool.unfix((f, 0))
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert disk.stats.reads == 1

    def test_eviction_when_full(self):
        disk, pool, f = pool_with_pages(2, 3)
        for i in range(3):
            pool.fix((f, i))
            pool.unfix((f, i))
        assert pool.stats.evictions == 1
        assert not pool.contains((f, 0))  # LRU victim

    def test_mru_evicts_most_recent(self):
        disk, pool, f = pool_with_pages(2, 3, Replacement.MRU)
        for i in range(2):
            pool.fix((f, i))
            pool.unfix((f, i))
        pool.fix((f, 2))
        pool.unfix((f, 2))
        assert not pool.contains((f, 1))
        assert pool.contains((f, 0))

    def test_clock_second_chance(self):
        disk, pool, f = pool_with_pages(2, 3, Replacement.CLOCK)
        for i in range(3):
            pool.fix((f, i))
            pool.unfix((f, i))
        assert len(list(pool.pinned_pages())) == 0
        assert pool.stats.evictions == 1

    def test_pinned_pages_not_evicted(self):
        disk, pool, f = pool_with_pages(2, 3)
        pool.fix((f, 0))  # stays pinned
        pool.fix((f, 1))
        pool.unfix((f, 1))
        pool.fix((f, 2))  # must evict page 1, not pinned page 0
        assert pool.contains((f, 0))
        assert not pool.contains((f, 1))

    def test_all_pinned_raises(self):
        disk, pool, f = pool_with_pages(2, 3)
        pool.fix((f, 0))
        pool.fix((f, 1))
        with pytest.raises(BufferError_):
            pool.fix((f, 2))

    def test_unfix_without_fix_raises(self):
        disk, pool, f = pool_with_pages(2, 1)
        with pytest.raises(BufferError_):
            pool.unfix((f, 0))

    def test_dirty_writeback_on_eviction(self):
        disk, pool, f = pool_with_pages(1, 2)
        data = pool.fix((f, 0))
        data[0] = 0xAB
        pool.unfix((f, 0), dirty=True)
        pool.fix((f, 1))  # evicts page 0
        pool.unfix((f, 1))
        assert disk.read_page((f, 0))[0] == 0xAB
        assert pool.stats.dirty_writebacks == 1

    def test_clean_eviction_skips_write(self):
        disk, pool, f = pool_with_pages(1, 2)
        pool.fix((f, 0))
        pool.unfix((f, 0))
        writes_before = disk.stats.writes
        pool.fix((f, 1))
        pool.unfix((f, 1))
        assert disk.stats.writes == writes_before

    def test_flush_all(self):
        disk, pool, f = pool_with_pages(4, 1)
        data = pool.fix((f, 0))
        data[0] = 7
        pool.unfix((f, 0), dirty=True)
        pool.flush_all()
        assert disk.read_page((f, 0))[0] == 7

    def test_clear_requires_unpinned(self):
        disk, pool, f = pool_with_pages(4, 1)
        pool.fix((f, 0))
        with pytest.raises(BufferError_):
            pool.clear()
        pool.unfix((f, 0))
        pool.clear()
        assert not pool.contains((f, 0))

    def test_discard_file_drops_dirty_frames(self):
        disk, pool, f = pool_with_pages(4, 2)
        data = pool.fix((f, 0))
        data[0] = 1
        pool.unfix((f, 0), dirty=True)
        pool.discard_file(f)
        disk.drop_file(f)
        # no writeback attempted later
        pool.flush_all()

    def test_new_page_pinned_and_dirty(self):
        disk, pool, f = pool_with_pages(4, 0)
        pid = pool.new_page(f)
        assert list(pool.pinned_pages()) == [pid]
        pool.unfix(pid, dirty=True)

    def test_page_guard_releases_on_exception(self):
        disk, pool, f = pool_with_pages(4, 1)
        with pytest.raises(ValueError):
            with PageGuard(pool, (f, 0)):
                raise ValueError("boom")
        assert list(pool.pinned_pages()) == []

    def test_page_guard_write_marks_dirty(self):
        disk, pool, f = pool_with_pages(1, 2)
        with PageGuard(pool, (f, 0), write=True) as data:
            data[1] = 0x55
        pool.fix((f, 1))
        pool.unfix((f, 1))
        assert disk.read_page((f, 0))[1] == 0x55

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(make_disk(), 0)


class TestBufferStatsAccounting:
    """Hit/miss bookkeeping across replacement policies + reset semantics."""

    def _workload(self, policy):
        """Touch 3 pages through a 2-frame pool: 0, 1, 0, 2, 0."""
        disk, pool, f = pool_with_pages(2, 3, policy)
        for page in (0, 1, 0, 2, 0):
            pool.fix((f, page))
            pool.unfix((f, page))
        return disk, pool, f

    @pytest.mark.parametrize(
        "policy", [Replacement.LRU, Replacement.CLOCK, Replacement.MRU]
    )
    def test_accesses_add_up(self, policy):
        disk, pool, f = self._workload(policy)
        stats = pool.stats
        assert stats.accesses == 5
        assert stats.hits + stats.misses == 5
        assert stats.misses >= 3  # each page faulted in at least once
        assert disk.stats.reads == stats.misses
        assert 0.0 <= stats.hit_rate <= 1.0

    def test_lru_keeps_hot_page(self):
        # LRU: page 0 is re-touched before 2 arrives, so 1 is the victim
        # and the final fix of 0 hits.
        disk, pool, f = self._workload(Replacement.LRU)
        assert pool.stats.hits == 2
        assert pool.stats.misses == 3
        assert pool.contains((f, 0))

    def test_mru_evicts_hot_page(self):
        # MRU: the just-touched page 0 is the victim when 2 arrives, so the
        # final fix of 0 misses again.
        disk, pool, f = self._workload(Replacement.MRU)
        assert pool.stats.hits == 1
        assert pool.stats.misses == 4

    def test_hit_rate_empty_pool_is_zero(self):
        disk = make_disk()
        pool = BufferPool(disk, 2)
        assert pool.stats.hit_rate == 0.0

    def test_snapshot_and_delta(self):
        disk, pool, f = self._workload(Replacement.CLOCK)
        before = pool.stats.snapshot()
        pool.fix((f, 1))
        pool.unfix((f, 1))
        delta = pool.stats.delta(before)
        assert delta.accesses == 1
        # snapshot is a copy, not a view
        assert before.accesses == 5
