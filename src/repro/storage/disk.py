"""Simulated disk: page-granular storage with exact I/O accounting.

The 1977-era cost models this library reproduces reason almost entirely in
units of *page fetches*.  The paper's testbed hardware is unavailable, so the
substrate is a simulated disk: a dict of page images plus counters that
record every read and write.  The buffer manager sits on top; the executor's
"actual cost" numbers in the benchmark harness are these counters.

Pages are ``bytearray`` images of a fixed size.  A :class:`DiskManager` owns
many *files* (one per heap file or index), each an append-only sequence of
pages addressed by ``(file_id, page_no)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Default page size.  Small enough that laptop-scale tables span many pages
#: (so I/O counts are meaningful), large enough to hold tens of records.
PAGE_SIZE = 4096

PageId = Tuple[int, int]  # (file_id, page_no)


class DiskError(Exception):
    """Raised on out-of-range page access."""


@dataclass
class IOStats:
    """Cumulative I/O counters.  ``reads``/``writes`` are physical page I/Os;
    ``seq_reads`` counts the subset issued sequentially (page_no exactly one
    past the previous read of the same file), which lets experiments separate
    sequential from random access patterns."""

    reads: int = 0
    writes: int = 0
    seq_reads: int = 0
    allocations: int = 0

    def snapshot(self) -> "IOStats":
        return IOStats(self.reads, self.writes, self.seq_reads, self.allocations)

    def delta(self, earlier: "IOStats") -> "IOStats":
        return IOStats(
            self.reads - earlier.reads,
            self.writes - earlier.writes,
            self.seq_reads - earlier.seq_reads,
            self.allocations - earlier.allocations,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IOStats(reads={self.reads}, writes={self.writes}, "
            f"seq_reads={self.seq_reads}, allocs={self.allocations})"
        )


@dataclass
class _File:
    name: str
    pages: List[bytearray] = field(default_factory=list)
    last_read: int = -2  # page_no of the most recent read, for seq detection


class DiskManager:
    """All persistent pages of one database instance."""

    def __init__(self, page_size: int = PAGE_SIZE):
        if page_size < 64:
            raise ValueError("page size too small to hold a page header")
        self.page_size = page_size
        self.stats = IOStats()
        self._files: Dict[int, _File] = {}
        self._next_file_id = 0

    # -- file lifecycle -------------------------------------------------------

    def create_file(self, name: str) -> int:
        file_id = self._next_file_id
        self._next_file_id += 1
        self._files[file_id] = _File(name)
        return file_id

    def drop_file(self, file_id: int) -> None:
        self._files.pop(file_id, None)

    def num_pages(self, file_id: int) -> int:
        return len(self._file(file_id).pages)

    def _file(self, file_id: int) -> _File:
        try:
            return self._files[file_id]
        except KeyError:
            raise DiskError(f"no such file: {file_id}") from None

    # -- page I/O --------------------------------------------------------------

    def allocate_page(self, file_id: int) -> PageId:
        """Append a zeroed page; counts as one write (formatting the page)."""
        f = self._file(file_id)
        page_no = len(f.pages)
        f.pages.append(bytearray(self.page_size))
        self.stats.allocations += 1
        self.stats.writes += 1
        return (file_id, page_no)

    def read_page(self, page_id: PageId) -> bytearray:
        """Fetch a page image from 'disk'.  Returns a *copy*: the caller (the
        buffer pool) owns the in-memory image until it writes it back."""
        file_id, page_no = page_id
        f = self._file(file_id)
        if not 0 <= page_no < len(f.pages):
            raise DiskError(f"page {page_no} out of range for file {f.name}")
        self.stats.reads += 1
        if page_no == f.last_read + 1:
            self.stats.seq_reads += 1
        f.last_read = page_no
        return bytearray(f.pages[page_no])

    def write_page(self, page_id: PageId, data: bytes) -> None:
        file_id, page_no = page_id
        f = self._file(file_id)
        if not 0 <= page_no < len(f.pages):
            raise DiskError(f"page {page_no} out of range for file {f.name}")
        if len(data) != self.page_size:
            raise DiskError(
                f"page image is {len(data)} bytes, expected {self.page_size}"
            )
        self.stats.writes += 1
        f.pages[page_no] = bytearray(data)

    # -- snapshot/restore (checkpointing; bypasses the I/O counters) -------------

    def page_images(self, file_id: int) -> List[bytearray]:
        """Direct references to a file's page images, in page order.

        Used by the checkpointer to stream a consistent snapshot (the
        buffer pool is flushed first, and no transaction is in flight),
        and by tests asserting byte-level page state.  Deliberately not
        counted as reads: a checkpoint is maintenance, not query I/O.
        """
        return list(self._file(file_id).pages)

    def restore_pages(self, file_id: int, images: List[bytes]) -> None:
        """Replace a file's pages wholesale from snapshot *images*.

        Recovery-only: installs a checkpoint's page images under a
        freshly created (empty) file.  Not counted in the I/O stats —
        recovery happens before any measured workload.
        """
        f = self._file(file_id)
        if f.pages:
            raise DiskError(
                f"restore into non-empty file {f.name} ({len(f.pages)} pages)"
            )
        for image in images:
            if len(image) != self.page_size:
                raise DiskError(
                    f"snapshot page is {len(image)} bytes, "
                    f"expected {self.page_size}"
                )
            f.pages.append(bytearray(image))
