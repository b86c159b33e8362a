"""Thread-safety of the buffer pool.

Parallel workers are *processes* with private pools, but the pool is
also shared by planner helpers and background readers within one
process, so its public surface must tolerate concurrent callers: no
frame may be evicted while pinned, stats must stay additive, and
concurrent fix/unfix of the same hot set must never corrupt page data.
"""

import random
import threading

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


@pytest.fixture()
def pool():
    disk = DiskManager(page_size=256)
    buffer_pool = BufferPool(disk, capacity=8)
    return disk, buffer_pool


def make_pages(disk, pool, count):
    file_id = disk.create_file("t")
    pages = []
    for i in range(count):
        pid = pool.new_page(file_id)
        data = pool.fix(pid)  # new_page leaves it pinned; pin again to write
        data[:4] = i.to_bytes(4, "big")
        pool.unfix(pid, dirty=True)
        pool.unfix(pid, dirty=True)
        pages.append(pid)
    pool.flush_all()
    return pages


class TestConcurrentAccess:
    def test_concurrent_fix_unfix_preserves_page_contents(self, pool):
        disk, buffer_pool = pool
        pages = make_pages(disk, buffer_pool, 32)
        errors = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(400):
                    index = rng.randrange(len(pages))
                    data = buffer_pool.fix(pages[index])
                    value = int.from_bytes(bytes(data[:4]), "big")
                    if value != index:
                        errors.append((index, value))
                    buffer_pool.unfix(pages[index])
            except Exception as exc:  # noqa: BLE001 - collect, don't die
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert list(buffer_pool.pinned_pages()) == []

    def test_stats_stay_consistent_under_contention(self, pool):
        disk, buffer_pool = pool
        pages = make_pages(disk, buffer_pool, 24)
        fixes = buffer_pool.stats.hits + buffer_pool.stats.misses

        per_thread = 300
        threads = 6

        def reader(seed):
            rng = random.Random(seed)
            for _ in range(per_thread):
                pid = pages[rng.randrange(len(pages))]
                buffer_pool.fix(pid)
                buffer_pool.unfix(pid)

        workers = [
            threading.Thread(target=reader, args=(s,)) for s in range(threads)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        stats = buffer_pool.stats
        # every fix is exactly one hit or one miss
        assert stats.hits + stats.misses - fixes == per_thread * threads
        assert list(buffer_pool.pinned_pages()) == []

    def test_pinned_frames_survive_concurrent_eviction_pressure(self, pool):
        disk, buffer_pool = pool
        pages = make_pages(disk, buffer_pool, 40)
        hot = pages[0]
        data = buffer_pool.fix(hot)  # stays pinned for the whole test
        want = bytes(data[:4])
        stop = threading.Event()
        errors = []

        def churn(seed):
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    pid = pages[rng.randrange(1, len(pages))]
                    buffer_pool.fix(pid)
                    buffer_pool.unfix(pid)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        workers = [
            threading.Thread(target=churn, args=(s,)) for s in range(4)
        ]
        for t in workers:
            t.start()
        for _ in range(200):
            assert bytes(data[:4]) == want
            assert buffer_pool.contains(hot)
        stop.set()
        for t in workers:
            t.join()
        buffer_pool.unfix(hot)
        assert errors == []

    def test_concurrent_new_page_allocations_are_unique(self, pool):
        disk, buffer_pool = pool
        file_id = disk.create_file("t")
        allocated = []
        lock = threading.Lock()

        def allocate():
            local = []
            for _ in range(25):
                pid = buffer_pool.new_page(file_id)
                buffer_pool.unfix(pid, dirty=True)
                local.append(pid)
            with lock:
                allocated.extend(local)

        workers = [threading.Thread(target=allocate) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert len(allocated) == 100
        assert len(set(allocated)) == 100
