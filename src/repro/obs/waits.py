"""Wait-event accounting: where does query time actually go?

Industrial engines answer "is this workload CPU-bound, I/O-bound or
lock-bound?" with a cumulative wait-event registry (PostgreSQL's
``pg_stat_activity.wait_event``, Oracle's wait interface).  This module is
that registry: a process-wide, thread-safe map of *event name* → (count,
total seconds), fed by instrumentation hooks in the storage and executor
layers:

* ``io.read`` / ``io.write`` — time inside the simulated disk, attributed
  at the buffer pool (every page read/writeback is timed once);
* ``lock.buffer`` — contended acquisitions of the buffer pool's lock
  (uncontended acquires are not timed, so the hot path stays cheap);
* ``exec.cpu`` — per-query executor time *minus* the I/O and lock waits
  the executing thread itself recorded during it (computed by the engine,
  so ``exec.cpu + io.* + lock.*`` reconciles with measured execution
  time, and another session's fsync is not charged to this one).

Event names are dotted, coarse-grained on purpose: the first segment is
the wait *class* (``io``, ``lock``, ``exec``), which is how
``sys_stat_waits`` groups and how dashboards slice.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: snapshot form: event name -> (count, total_seconds)
WaitSnapshot = Dict[str, Tuple[int, float]]


class WaitEventStats:
    """Cumulative per-event wait counters (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # event -> [count, total_seconds]; lists so record() mutates in place
        self._events: Dict[str, List[float]] = {}
        # .seconds: what the calling thread itself spent blocked
        self._blocked = threading.local()

    # -- recording -----------------------------------------------------------

    def record(self, event: str, seconds: float, count: int = 1) -> None:
        """Add one (or *count*) occurrences of *event* totalling *seconds*."""
        if not event.startswith("exec."):
            blocked = self._blocked
            blocked.seconds = getattr(blocked, "seconds", 0.0) + seconds
        with self._lock:
            cell = self._events.get(event)
            if cell is None:
                self._events[event] = [count, seconds]
            else:
                cell[0] += count
                cell[1] += seconds

    @contextmanager
    def timer(self, event: str) -> Iterator[None]:
        """Time a block and record it as one occurrence of *event*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(event, time.perf_counter() - start)

    # -- reading -------------------------------------------------------------

    def blocked_seconds(self) -> float:
        """Running total of the non-``exec.`` wait time the *calling
        thread* recorded; its growth across an execution is the time that
        execution was blocked, whatever other sessions waited for."""
        return getattr(self._blocked, "seconds", 0.0)

    def snapshot(self) -> WaitSnapshot:
        with self._lock:
            return {
                event: (int(cell[0]), cell[1])
                for event, cell in self._events.items()
            }

    def delta(self, earlier: WaitSnapshot) -> WaitSnapshot:
        """Events accumulated since *earlier* (a prior :meth:`snapshot`)."""
        out: WaitSnapshot = {}
        for event, (count, seconds) in self.snapshot().items():
            c0, s0 = earlier.get(event, (0, 0.0))
            if count - c0 or seconds - s0:
                out[event] = (count - c0, seconds - s0)
        return out

    def count(self, event: str) -> int:
        with self._lock:
            cell = self._events.get(event)
            return int(cell[0]) if cell else 0

    def seconds(self, event: str) -> float:
        with self._lock:
            cell = self._events.get(event)
            return cell[1] if cell else 0.0

    def rows(self) -> List[Tuple[str, int, float, float]]:
        """``(event, count, total_ms, mean_ms)`` rows, sorted by event —
        the exact shape ``sys_stat_waits`` exposes."""
        out = []
        for event, (count, seconds) in sorted(self.snapshot().items()):
            total_ms = seconds * 1000.0
            out.append(
                (event, count, total_ms, total_ms / count if count else 0.0)
            )
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def reset(self) -> None:
        with self._lock:
            self._events.clear()

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            event: {"count": count, "seconds": seconds}
            for event, (count, seconds) in sorted(self.snapshot().items())
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "WaitEventStats":
        stats = cls()
        for event, cell in json.loads(text).items():
            stats.record(event, cell["seconds"], int(cell["count"]))
        return stats
