"""Storage substrate: simulated disk, slotted pages, heap files, buffer pool."""

from .buffer import BufferError_, BufferPool, BufferStats, PageGuard, Replacement
from .disk import PAGE_SIZE, DiskError, DiskManager, IOStats, PageId
from .heap import RID, HeapError, HeapFile
from .page import PageError, SlottedPage
from .record import RecordError, deserialize_row, serialize_row

__all__ = [
    "BufferError_",
    "BufferPool",
    "BufferStats",
    "PageGuard",
    "Replacement",
    "PAGE_SIZE",
    "DiskError",
    "DiskManager",
    "IOStats",
    "PageId",
    "RID",
    "HeapError",
    "HeapFile",
    "PageError",
    "SlottedPage",
    "RecordError",
    "deserialize_row",
    "serialize_row",
]
