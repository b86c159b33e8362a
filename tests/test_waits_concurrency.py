"""Thread-safety of the wait-event registry and metrics instruments.

Mirrors the buffer-pool concurrency suite: many threads hammer the same
shared registries and every counter must stay exactly additive — no lost
increments, no torn (count, seconds) pairs.
"""

import os
import random
import threading
import time

import pytest

from repro import Database
from repro.obs import MetricsRegistry, WaitEventStats
from repro.storage.buffer import BufferPool, _TimedRLock
from repro.storage.disk import DiskManager

THREADS = 8
PER_THREAD = 500


def _run_threads(worker):
    errors = []

    def wrapped(seed):
        try:
            worker(seed)
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(seed,))
        for seed in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


class TestWaitEventStatsConcurrency:
    def test_concurrent_record_is_exactly_additive(self):
        stats = WaitEventStats()

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(PER_THREAD):
                event = rng.choice(("io.read", "io.write", "lock.buffer"))
                stats.record(event, 0.001)

        _run_threads(worker)
        total = sum(count for count, _ in stats.snapshot().values())
        assert total == THREADS * PER_THREAD
        for count, seconds in stats.snapshot().values():
            assert seconds == __import__("pytest").approx(count * 0.001)

    def test_concurrent_timers_never_lose_occurrences(self):
        stats = WaitEventStats()

        def worker(seed):
            for _ in range(PER_THREAD):
                # timed the way the engine times exec.cpu
                start = time.perf_counter()
                stats.record("exec.cpu", time.perf_counter() - start)

        _run_threads(worker)
        assert stats.count("exec.cpu") == THREADS * PER_THREAD
        assert stats.seconds("exec.cpu") >= 0.0

    def test_snapshot_during_writes_is_consistent(self):
        stats = WaitEventStats()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                stats.record("io.read", 0.001)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                for count, seconds in stats.snapshot().values():
                    # a torn read would break the fixed count:seconds ratio
                    assert abs(seconds - count * 0.001) < 1e-9
        finally:
            stop.set()
            thread.join()


class TestExecCpuIsPerSession:
    def test_reader_is_not_charged_a_concurrent_committers_fsync(
        self, tmp_path, monkeypatch
    ):
        """A COMMIT's fsync runs outside the statement lock, beside other
        sessions' SELECTs; ``exec.cpu`` is execution time minus what the
        *executing thread* waited for, so the committer's ``wal.fsync``
        must not come out of the reader's CPU time."""
        real_fsync = os.fsync

        def slow_fsync(fd):
            time.sleep(0.005)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        db = Database(data_dir=str(tmp_path))
        db.execute("CREATE TABLE r (a INT, b FLOAT)")
        db.insert_rows("r", [(i, i * 0.5) for i in range(5000)])
        db.execute("CREATE TABLE w (k INT)")
        sql = "SELECT COUNT(*), SUM(b) FROM r"
        db.query(sql)  # r is buffer-resident from here on
        stop, failures = threading.Event(), []

        def committer():
            try:
                with db.create_session() as session:
                    k = 0
                    while not stop.is_set():
                        session.execute(f"INSERT INTO w VALUES ({k})")
                        k += 1
            except Exception as exc:  # re-raised on the main thread
                failures.append(exc)

        thread = threading.Thread(target=committer)
        thread.start()
        try:
            while db.waits.count("wal.fsync") < 2:  # the committer is running
                assert thread.is_alive()
                time.sleep(0.001)
            before = db.waits.snapshot()
            executed = sum(db.query(sql).execution_seconds for _ in range(40))
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        if failures:
            raise failures[0]
        waited = db.waits.delta(before)
        # only SELECTs record exec.cpu, and the reader ran all of them
        assert waited["exec.cpu"][0] == 40
        # fsyncs did complete beside the reads, for at least 5 % of their time
        assert waited["wal.fsync"][1] > 0.05 * executed
        assert waited["exec.cpu"][1] == pytest.approx(executed, rel=0.05)
        db.close()


class TestMetricsRegistryConcurrency:
    def test_concurrent_counter_increments(self):
        registry = MetricsRegistry()

        def worker(seed):
            for _ in range(PER_THREAD):
                registry.counter("queries_total").inc()

        _run_threads(worker)
        assert registry.counter("queries_total").value == THREADS * PER_THREAD

    def test_concurrent_lazy_creation_yields_one_instrument(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(THREADS)

        def worker(seed):
            barrier.wait()
            for i in range(PER_THREAD):
                registry.counter(f"c{i % 10}").inc()
                registry.histogram(f"h{i % 10}").observe(float(i))

        _run_threads(worker)
        for i in range(10):
            assert registry.counter(f"c{i}").value == THREADS * PER_THREAD / 10
            assert registry.histogram(f"h{i}").count == THREADS * PER_THREAD / 10

    def test_concurrent_histogram_observations_stay_consistent(self):
        registry = MetricsRegistry()

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(PER_THREAD):
                registry.histogram("execution_ms").observe(rng.uniform(0, 100))

        _run_threads(worker)
        hist = registry.histogram("execution_ms")
        assert hist.count == THREADS * PER_THREAD
        assert sum(hist.bucket_counts) == hist.count
        assert 0.0 <= hist.min <= hist.max <= 100.0


class TestTimedLockContention:
    def test_contended_acquire_is_timed_uncontended_is_not(self):
        lock = _TimedRLock()
        lock.waits = WaitEventStats()
        with lock:
            pass  # uncontended: nothing recorded
        assert lock.waits.count("lock.buffer") == 0

        entered = threading.Event()
        release = threading.Event()

        def holder():
            with lock:
                entered.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=holder)
        thread.start()
        entered.wait(timeout=5)
        timer = threading.Timer(0.05, release.set)
        timer.start()
        with lock:  # blocks until the holder releases -> timed
            pass
        thread.join()
        timer.cancel()
        assert lock.waits.count("lock.buffer") == 1
        assert lock.waits.seconds("lock.buffer") > 0.0

    def test_pool_contention_shows_up_as_lock_waits(self):
        disk = DiskManager(page_size=256)
        pool = BufferPool(disk, capacity=8)
        pool.waits = WaitEventStats()
        file_id = disk.create_file("t")
        pages = []
        for i in range(16):
            pid = pool.new_page(file_id)
            pool.unfix(pid, dirty=True)
            pages.append(pid)
        pool.flush_all()

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(PER_THREAD):
                pid = pages[rng.randrange(len(pages))]
                pool.fix(pid)
                pool.unfix(pid)

        _run_threads(worker)
        stats = pool.stats
        # stats additive under contention (the lock actually serializes);
        # new_page allocations do not count as accesses, only fix() does
        assert stats.hits + stats.misses == THREADS * PER_THREAD
        # every miss beyond the initial allocation was timed as an io.read
        assert pool.waits.count("io.read") == stats.misses
