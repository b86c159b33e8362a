"""Buffer manager: a fixed set of frames between the executor and the disk.

The pool implements the classic pin/unpin protocol with pluggable
replacement policies (LRU, Clock, MRU, FIFO).  Every physical operator does
its page access through here, so buffer-pool hit rates — and therefore the
buffer-size-sensitivity experiments (E8) — fall out of real mechanism, not
modeling.

Frames hold ``bytearray`` page images.  A dirty frame is written back when
evicted or on ``flush_all``.

A frame may also hold one value a reader derived from its bytes — the
columnar scan keeps a heap page's decoded columns there
(``fix_decoded``).  The value lives exactly as long as the bytes it was
derived from: every fix for write drops it (``fix(write=True)``,
``unfix(dirty=True)``, a write guard whose body raised), and it goes with
its frame on eviction, ``clear`` and ``discard_file``.  A write-back
keeps it, since the bytes do not change.  There is no knob: the pool's
frames bound it.

The pool is thread-safe: a single reentrant lock serializes every public
entry point, so concurrent pin/unpin/read from multiple threads can never
interleave a lookup with an eviction (the classic fix-vs-evict race) or
lose stats increments.  It exists for in-process threading (server
sessions, tests) and costs one uncontended acquire per call.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence

from ..wal import failpoints
from .disk import DiskManager, PageId


class BufferError_(Exception):
    """Raised when the pool cannot satisfy a fix request."""


class Replacement(enum.Enum):
    LRU = "lru"
    CLOCK = "clock"
    MRU = "mru"
    FIFO = "fifo"


@dataclass
class BufferStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0
    #: ``fix_decoded`` fixes served by a frame's derived value, and
    #: those that had to decode (each is also a hit or a miss above)
    decoded_hits: int = 0
    decoded_misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0

    def snapshot(self) -> "BufferStats":
        return BufferStats(
            self.hits,
            self.misses,
            self.evictions,
            self.dirty_writebacks,
            self.decoded_hits,
            self.decoded_misses,
        )

    def delta(self, earlier: "BufferStats") -> "BufferStats":
        return BufferStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.evictions - earlier.evictions,
            self.dirty_writebacks - earlier.dirty_writebacks,
            self.decoded_hits - earlier.decoded_hits,
            self.decoded_misses - earlier.decoded_misses,
        )


class _TimedRLock:
    """Reentrant lock that attributes *contended* acquisitions to a wait
    registry (``lock.buffer``).  The fast path — the lock is free or
    already held by this thread — costs one non-blocking try, the same as
    a plain ``with lock:``; only a genuinely blocked acquire pays two
    clock reads.  ``waits=None`` (the default) disables timing entirely.
    """

    __slots__ = ("_lock", "waits")

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.waits = None  # a repro.obs.WaitEventStats, attached by the engine

    def __enter__(self) -> "_TimedRLock":
        if not self._lock.acquire(blocking=False):
            waits = self.waits
            if waits is None:
                self._lock.acquire()
            else:
                start = time.perf_counter()
                self._lock.acquire()
                waits.record("lock.buffer", time.perf_counter() - start)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._lock.release()


class _Frame:
    __slots__ = (
        "page_id", "data", "pin_count", "dirty", "referenced", "derived",
        "writes",
    )

    def __init__(self, page_id: PageId, data: bytearray):
        self.page_id = page_id
        self.data = data
        self.pin_count = 0
        self.dirty = False
        self.referenced = True  # for Clock
        #: the value ``fix_decoded`` derived from ``data`` (None = none)
        self.derived: Any = None
        #: fixes for write so far: a derivation stamped with an older
        #: count read bytes that may have changed since
        self.writes = 0

    def wrote(self) -> None:
        self.derived = None
        self.writes += 1


class BufferPool:
    """A bounded cache of disk pages with pin/unpin semantics."""

    def __init__(
        self,
        disk: DiskManager,
        capacity: int = 64,
        policy: Replacement = Replacement.LRU,
    ):
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self.policy = policy
        self.stats = BufferStats()
        # OrderedDict gives us LRU/MRU/FIFO ordering cheaply; for Clock we
        # sweep it with a persistent hand index.
        self._frames: "OrderedDict[PageId, _Frame]" = OrderedDict()
        self._clock_hand = 0
        # Reentrant so internal helpers may call public methods (new_page
        # formatting paths fix/unfix while already holding the lock).
        # Contended acquisitions are timed when a wait registry is attached.
        self._lock = _TimedRLock()
        #: no-steal hook: ``evict_guard(page_id) -> bool`` vetoes evicting
        #: pages dirtied by an active transaction (attached by the engine's
        #: transaction manager; None = every unpinned frame is fair game)
        self.evict_guard = None
        #: WAL-before-data hook, called with the page id right before a
        #: dirty frame's image goes down to disk
        self.write_hook = None
        #: called with the page id right after a dirty frame's image
        #: reached disk (the transaction manager clears the page's recLSN
        #: so fuzzy checkpoints can compute their redo start point)
        self.clean_hook = None

    @property
    def waits(self):
        """The attached wait-event registry (None = wait accounting off)."""
        return self._lock.waits

    @waits.setter
    def waits(self, registry) -> None:
        self._lock.waits = registry

    # -- public protocol -----------------------------------------------------------

    def fix(self, page_id: PageId, write: bool = False) -> bytearray:
        """Pin a page and return its in-pool image (mutable, shared).
        *write*: the caller is about to change it, so the frame's derived
        value goes now."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.stats.hits += 1
                self._touch(frame)
            else:
                self.stats.misses += 1
                self._ensure_capacity()
                waits = self._lock.waits
                if waits is None:
                    data = self.disk.read_page(page_id)
                else:
                    start = time.perf_counter()
                    data = self.disk.read_page(page_id)
                    waits.record("io.read", time.perf_counter() - start)
                frame = _Frame(page_id, data)
                self._frames[page_id] = frame
            frame.pin_count += 1
            if write:
                frame.wrote()
            return frame.data

    def unfix(
        self, page_id: PageId, dirty: bool = False, write: bool = False
    ) -> None:
        """Release one pin; mark the frame dirty if the caller modified it.
        A dirty release, or the release of a fix for *write* (done or not:
        a write that raised may have changed some bytes), drops the
        frame's derived value."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None or frame.pin_count <= 0:
                raise BufferError_(f"unfix of page {page_id} that is not pinned")
            frame.pin_count -= 1
            if dirty:
                frame.dirty = True
            if dirty or write:
                frame.wrote()

    def fix_decoded(
        self,
        page_ids: Sequence[PageId],
        decode: Callable[[List[bytes]], List[Any]],
    ) -> List[Any]:
        """One derived value per page of *page_ids*, kept on the frames.

        Every page is fixed once, in order, with ``fix`` and released at
        once: hits, misses and evictions count as for any other fix.  A
        frame that holds a value gives it; the bytes of the others are
        copied, and *decode* turns the copies, in one call made outside
        the lock, into one value per page.  A value
        is kept only if its frame is still the same resident frame with
        no fix for write since the copy.  Callers must treat a value as
        immutable: every later reader of the page is handed the same one.
        """
        values: List[Any] = [None] * len(page_ids)
        pending = []  # (position, frame, its write count at the copy)
        raws: List[bytes] = []
        stats = self.stats
        for i, page_id in enumerate(page_ids):
            data = self.fix(page_id)
            try:
                with self._lock:
                    frame = self._frames[page_id]
                    if frame.derived is not None:
                        stats.decoded_hits += 1
                        values[i] = frame.derived
                        continue
                    stats.decoded_misses += 1
                    pending.append((i, frame, frame.writes))
                raws.append(bytes(data))
            finally:
                self.unfix(page_id)
        if raws:
            decoded = decode(raws)
            with self._lock:
                for (i, frame, writes), value in zip(pending, decoded):
                    values[i] = value
                    if (
                        frame.writes == writes
                        and self._frames.get(frame.page_id) is frame
                    ):
                        frame.derived = value
        return values

    def new_page(self, file_id: int) -> PageId:
        """Allocate a fresh page on disk and fix it (pinned, zeroed)."""
        with self._lock:
            page_id = self.disk.allocate_page(file_id)
            self._ensure_capacity()
            frame = _Frame(page_id, bytearray(self.disk.page_size))
            frame.pin_count = 1
            frame.dirty = True
            self._frames[page_id] = frame
            return page_id

    def flush_all(self) -> None:
        with self._lock:
            for frame in self._frames.values():
                self._writeback(frame)

    def clear(self) -> None:
        """Flush and drop every unpinned frame (used between experiments so
        runs start cold).  Frames vetoed by the no-steal guard are kept
        in place, neither written nor dropped — uncommitted bytes must
        never reach the disk image."""
        with self._lock:
            pinned = [f for f in self._frames.values() if f.pin_count > 0]
            if pinned:
                raise BufferError_(f"{len(pinned)} frames still pinned")
            kept = {}
            for pid, frame in self._frames.items():
                if (
                    frame.dirty
                    and self.evict_guard is not None
                    and not self.evict_guard(pid)
                ):
                    kept[pid] = frame
                    continue
                self._writeback(frame)
            for frame in kept.values():
                frame.derived = None
            self._frames = OrderedDict(kept)
            self._clock_hand = 0

    def dirty_pages(self) -> list:
        """Page ids of every dirty frame (a fuzzy checkpoint's worklist)."""
        with self._lock:
            return [pid for pid, f in self._frames.items() if f.dirty]

    def flush_page(self, page_id: PageId) -> bool:
        """Write one dirty frame back (keeping it cached).  Returns True
        if a write happened."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None or not frame.dirty:
                return False
            self._writeback(frame)
            return True

    def discard_file(self, file_id: int) -> None:
        """Drop every frame of *file_id* without writeback (the file is
        being deleted).  Must be called before the disk file is dropped."""
        with self._lock:
            doomed = [pid for pid in self._frames if pid[0] == file_id]
            for pid in doomed:
                frame = self._frames[pid]
                if frame.pin_count > 0:
                    raise BufferError_(
                        f"page {pid} of dropped file still pinned"
                    )
                del self._frames[pid]
            self._clock_hand = 0

    def pinned_pages(self) -> Iterator[PageId]:
        with self._lock:
            return iter(
                [pid for pid, f in self._frames.items() if f.pin_count > 0]
            )

    def contains(self, page_id: PageId) -> bool:
        with self._lock:
            return page_id in self._frames

    # -- internals --------------------------------------------------------------------

    def _touch(self, frame: _Frame) -> None:
        frame.referenced = True
        if self.policy in (Replacement.LRU, Replacement.MRU):
            self._frames.move_to_end(frame.page_id)
        # FIFO and CLOCK do not reorder on access.

    def _ensure_capacity(self) -> None:
        if len(self._frames) < self.capacity:
            return
        victim = self._choose_victim()
        self._writeback(victim)
        del self._frames[victim.page_id]
        self.stats.evictions += 1

    def _evictable(self, frame: _Frame) -> bool:
        if frame.pin_count > 0:
            return False
        # no-steal: a dirty page belonging to an in-flight transaction
        # must not reach disk before that transaction resolves
        if (
            frame.dirty
            and self.evict_guard is not None
            and not self.evict_guard(frame.page_id)
        ):
            return False
        return True

    def _choose_victim(self) -> _Frame:
        if self.policy is Replacement.CLOCK:
            return self._clock_victim()
        frames = self._frames.values()
        order = reversed(frames) if self.policy is Replacement.MRU else frames
        for frame in order:
            if self._evictable(frame):
                return frame
        raise BufferError_("all frames pinned or transaction-dirty; cannot evict")

    def _clock_victim(self) -> _Frame:
        frames = list(self._frames.values())
        n = len(frames)
        sweeps = 0
        while sweeps < 2 * n + 1:
            frame = frames[self._clock_hand % n]
            self._clock_hand = (self._clock_hand + 1) % n
            sweeps += 1
            if not self._evictable(frame):
                continue
            if frame.referenced:
                frame.referenced = False
                continue
            return frame
        raise BufferError_("all frames pinned or transaction-dirty; cannot evict")

    def _writeback(self, frame: _Frame) -> None:
        if frame.dirty:
            if self.write_hook is not None:
                self.write_hook(frame.page_id)
            action = failpoints.FAILPOINTS.hit("page.writeback")
            waits = self._lock.waits
            if waits is None:
                self.disk.write_page(frame.page_id, bytes(frame.data))
            else:
                start = time.perf_counter()
                self.disk.write_page(frame.page_id, bytes(frame.data))
                waits.record("io.write", time.perf_counter() - start)
            frame.dirty = False
            self.stats.dirty_writebacks += 1
            if self.clean_hook is not None:
                self.clean_hook(frame.page_id)
            if action is not None:
                failpoints.crash()


class PageGuard:
    """Context manager for exception-safe fix/unfix.

    ::

        with PageGuard(pool, page_id) as data:
            ... read data ...
        with PageGuard(pool, page_id, write=True) as data:
            ... mutate data ...
    """

    def __init__(self, pool: BufferPool, page_id: PageId, write: bool = False):
        self.pool = pool
        self.page_id = page_id
        self.write = write
        self._data: Optional[bytearray] = None

    def __enter__(self) -> bytearray:
        if self.write:
            self._data = self.pool.fix(self.page_id, write=True)
        else:
            self._data = self.pool.fix(self.page_id)
        return self._data

    def __exit__(self, exc_type, exc, tb) -> None:
        self.pool.unfix(
            self.page_id,
            dirty=self.write and exc_type is None,
            write=self.write,
        )
