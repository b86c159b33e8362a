"""Execution context: work memory, temp-file spill, and run metrics.

``work_mem_pages`` bounds the memory every blocking operator may use
(sort runs, hash-join build side, nested-loop blocks).  Spill goes through
temp heap files on the simulated disk via the shared buffer pool, so
spilling shows up in the I/O counters exactly like any other page traffic.

``batch_size`` is the operator engine's unit of work: how many rows each
``next_batch()`` call targets.  ``batch_size=1`` degenerates to classic
tuple-at-a-time Volcano behaviour; larger batches amortize dispatch and
instrumentation overhead (results are identical at any size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from ..obs import InstrumentLevel
from ..storage import BufferPool, HeapFile
from ..types import Schema


@dataclass
class ExecMetrics:
    """Executor-side counters (I/O counters live on the disk manager)."""

    rows_scanned: int = 0
    rows_emitted: int = 0
    comparisons: int = 0
    hash_probes: int = 0
    temp_files: int = 0
    spills: int = 0
    row_fallbacks: int = 0  # operators that turned a ColumnBatch into rows


class ExecContext:
    """Shared state for one query execution."""

    #: default rows per batch; large enough to amortize per-batch dispatch
    #: and instrumentation, small enough that a batch of wide tuples stays
    #: cache-friendly
    DEFAULT_BATCH_SIZE = 1024

    def __init__(
        self,
        pool: BufferPool,
        work_mem_pages: int = 64,
        instrument: InstrumentLevel = InstrumentLevel.ROWS,
        batch_size: int = DEFAULT_BATCH_SIZE,
        activity: Optional[Any] = None,
        columnar: bool = True,
        snapshot: Optional[Any] = None,
    ):
        if work_mem_pages < 3:
            raise ValueError("work memory must be at least 3 pages")
        if batch_size < 1:
            raise ValueError("batch size must be at least 1 row")
        self.pool = pool
        self.work_mem_pages = work_mem_pages
        self.instrument = instrument
        self.batch_size = batch_size
        #: vectorized execution: scans decode pages into ColumnBatch
        #: columns and migrated operators stay columnar; unmigrated ones
        #: convert via ``Operator._as_rows``
        self.columnar = columnar
        #: the in-flight statement's ActivityEntry (``sys_stat_activity``);
        #: the run loop updates its progress fields batch by batch
        self.activity = activity
        #: MVCC read view (a ``repro.wal.Snapshot``); scans consult it to
        #: hide rows committed after the snapshot and resurrect rows the
        #: snapshot should still see.  ``None`` = read the live heap.
        self.snapshot = snapshot
        self.metrics = ExecMetrics()
        self._temp_counter = 0
        self._temp_files: List[HeapFile] = []

    @property
    def work_mem_bytes(self) -> int:
        return self.work_mem_pages * self.pool.disk.page_size

    # -- temp files --------------------------------------------------------------

    def create_temp(self, schema: Schema) -> HeapFile:
        self._temp_counter += 1
        self.metrics.temp_files += 1
        temp = HeapFile(self.pool, schema, f"tmp:{self._temp_counter}")
        self._temp_files.append(temp)
        return temp

    def drop_temp(self, temp: HeapFile) -> None:
        self.pool.discard_file(temp.file_id)
        self.pool.disk.drop_file(temp.file_id)
        if temp in self._temp_files:
            self._temp_files.remove(temp)

    def cleanup(self) -> None:
        """Drop any temp files still alive (safe to call repeatedly)."""
        for temp in list(self._temp_files):
            self.drop_temp(temp)

    # -- memory accounting ----------------------------------------------------------

    def max_rows_in_memory(self, schema: Schema, pages: int = 0) -> int:
        """How many rows of *schema* fit in the budget (or in *pages*)."""
        budget = (
            pages * self.pool.disk.page_size if pages else self.work_mem_bytes
        )
        return max(1, budget // schema.estimated_row_bytes())
