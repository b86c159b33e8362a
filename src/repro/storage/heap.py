"""Heap files: unordered collections of records over slotted pages.

A heap file owns one disk file.  Records are addressed by RID
``(page_no, slot_no)``.  Inserts go to the last page with room (tracked via
a tiny in-memory free-space hint); scans walk pages in order through the
buffer pool, so sequential scans cost exactly ``num_pages`` reads on a cold
pool.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..types import Schema
from .buffer import BufferPool, PageGuard
from .page import SlottedPage
from .record import deserialize_row, serialize_row

RID = Tuple[int, int]  # (page_no, slot_no)


class HeapError(Exception):
    """Raised on invalid RIDs or oversized records."""


class HeapFile:
    """An unordered record file with stable RIDs."""

    def __init__(self, pool: BufferPool, schema: Schema, name: str):
        self.pool = pool
        self.schema = schema
        self.name = name
        self.file_id = pool.disk.create_file(name)
        # Free-space hints: page numbers that recently had room.  Purely an
        # optimization — correctness never depends on it.
        self._insert_hint: Optional[int] = None
        self._num_rows = 0
        #: transaction hooks (a ``repro.wal.TxnManager``), attached by the
        #: catalog.  Each write calls one before its page changes, so the
        #: active transaction logs redo, versions the row and owns the
        #: frame first; with no active transaction the hooks log nothing
        #: (transient tables, recovery, rollback).
        self.hooks = None

    # -- geometry ---------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return self.pool.disk.num_pages(self.file_id)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    # -- mutation ----------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> RID:
        """Validate, serialize and store a row; returns its RID."""
        return self.insert_stored(self.schema.validate_row(row))

    def insert_stored(self, stored: Tuple[Any, ...]) -> RID:
        """:meth:`insert` for a row ``schema.validate_row`` already
        returned (``TableInfo`` validates once and keeps the result)."""
        record = serialize_row(self.schema, stored)
        max_record = self.pool.disk.page_size - 64
        if len(record) > max_record:
            raise HeapError(
                f"record of {len(record)} bytes exceeds page capacity"
            )
        page_no = self._find_space(len(record))
        page_id = (self.file_id, page_no)
        with PageGuard(self.pool, page_id, write=True) as data:
            page = SlottedPage(data)
            slot_no = page.num_slots
            if self.hooks is not None:
                self.hooks.on_write(self.name, page_id, slot_no, record, None)
            _place(page, page_no, slot_no, record)
        self._insert_hint = page_no
        self._num_rows += 1
        return (page_no, slot_no)

    def delete(self, rid: RID) -> bool:
        page_no, slot_no = rid
        self._check_page(page_no)
        page_id = (self.file_id, page_no)
        with PageGuard(self.pool, page_id, write=True) as data:
            page = SlottedPage(data)
            old = page.read(slot_no)
            if old is None:
                return False
            if self.hooks is not None:
                self.hooks.on_write(self.name, page_id, slot_no, None, old)
            page.delete(slot_no)
        self._num_rows -= 1
        self._insert_hint = None  # page gained space but needs compaction
        return True

    def update(self, rid: RID, row: Sequence[Any]) -> RID:
        """Update in place when possible, else delete + reinsert (new RID).
        ``TableInfo`` moves a row itself, so each half gets its index step."""
        stored = self.schema.validate_row(row)
        if self.update_stored(rid, stored):
            return rid
        self.delete(rid)
        return self.insert_stored(stored)

    def update_stored(self, rid: RID, stored: Tuple[Any, ...]) -> bool:
        """Overwrite the row at *rid* with the validated *stored* in place.
        Returns False, having changed nothing, when its record is longer
        than the slot's (the caller moves the row)."""
        record = serialize_row(self.schema, stored)
        page_no, slot_no = rid
        self._check_page(page_no)
        page_id = (self.file_id, page_no)
        with PageGuard(self.pool, page_id, write=True) as data:
            page = SlottedPage(data)
            old = page.read(slot_no)
            if old is None:
                raise HeapError(f"update of deleted row {rid} in heap {self.name}")
            if len(record) > len(old):
                return False
            if self.hooks is not None:
                self.hooks.on_write(self.name, page_id, slot_no, record, old)
            page.update(slot_no, record)
        return True

    # -- access ------------------------------------------------------------------

    def fetch(self, rid: RID) -> Optional[Tuple[Any, ...]]:
        """The row at *rid*, or None if it was deleted."""
        page_no, slot_no = rid
        self._check_page(page_no)
        with PageGuard(self.pool, (self.file_id, page_no)) as data:
            record = SlottedPage(data).read(slot_no)
        if record is None:
            return None
        return deserialize_row(self.schema, record)

    def page_bytes(self, page_no: int) -> bytes:
        """Snapshot one page's raw bytes (fixed, copied, released).

        The index join's gather decodes pages outside the page guard, so
        the pin is never held across decode or consumer work (the
        columnar scan copies through ``BufferPool.fix_decoded``).
        """
        self._check_page(page_no)
        with PageGuard(self.pool, (self.file_id, page_no)) as data:
            return bytes(data)

    def scan(self) -> Iterator[Tuple[RID, Tuple[Any, ...]]]:
        """Scan every page in order as ``(rid, row)``."""
        for page_no in range(self.num_pages):
            page_id = (self.file_id, page_no)
            with PageGuard(self.pool, page_id) as data:
                page = SlottedPage(data)
                rows = [
                    ((page_no, slot_no), deserialize_row(self.schema, rec))
                    for slot_no, rec in page.records()
                ]
            # Yield outside the guard so the pin is not held across
            # consumer work (consumers may fix other pages).
            for item in rows:
                yield item

    def scan_rows(self) -> Iterator[Tuple[Any, ...]]:
        for _, row in self.scan():
            yield row

    # -- internals -----------------------------------------------------------------

    def _check_page(self, page_no: int) -> None:
        if not 0 <= page_no < self.num_pages:
            raise HeapError(f"page {page_no} out of range for heap {self.name}")

    def _find_space(self, record_len: int) -> int:
        """Page number with room for *record_len*, allocating if needed."""
        candidates: List[int] = []
        if self._insert_hint is not None and self._insert_hint < self.num_pages:
            candidates.append(self._insert_hint)
        last = self.num_pages - 1
        if last >= 0 and last not in candidates:
            candidates.append(last)
        for page_no in candidates:
            page_id = (self.file_id, page_no)
            with PageGuard(self.pool, page_id) as data:
                if SlottedPage(data).can_fit(record_len):
                    return page_no
        page_no = self.num_pages
        if self.hooks is None:
            self.replay_alloc(page_no)
        else:  # logs the ALLOC, then creates the page
            self.hooks.on_alloc(self.name, (self.file_id, page_no), self.replay_alloc)
        return page_no

    # -- recovery / rollback entry points --------------------------------------
    #
    # The replay_* methods apply one physiological WAL record verbatim:
    # no schema validation, no hooks (recovery and rollback must never
    # re-log), no free-space search — the record says exactly which page
    # and slot.  The forward writes above use the same page steps once
    # their hook has logged the record; ``_find_space`` uses ``replay_alloc``.
    #
    # All of them are *idempotent*: a fuzzy checkpoint's page images may
    # already reflect some records of the redo suffix (redo starts at the
    # minimum recLSN over dirty pages, which can lie before the flush
    # point of other pages), so replaying onto an already-current page
    # must be a no-op that later suffix records converge over.

    def replay_alloc(self, page_no: int) -> None:
        """Redo a page allocation.  Idempotent — but a fuzzy checkpoint
        can capture a page whose allocation record came from a then-open
        transaction: the disk file already has the page, yet its image is
        all zeros (the in-pool formatting was never flushed, by no-steal).
        Such a page is formatted here so later replays can land on it."""
        if page_no < self.num_pages:
            page_id = (self.file_id, page_no)
            with PageGuard(self.pool, page_id, write=True) as data:
                if SlottedPage(data).free_offset == 0:
                    SlottedPage.format(data)
            return
        if page_no != self.num_pages:
            raise HeapError(
                f"alloc replay out of order: want page {self.num_pages}, "
                f"record says {page_no}"
            )
        page_id = self.pool.new_page(self.file_id)
        SlottedPage.format(self.pool.fix(page_id))
        self.pool.unfix(page_id, dirty=True)
        self.pool.unfix(page_id, dirty=True)

    def replay_insert(self, page_no: int, slot_no: int, record: bytes) -> None:
        """Redo an insert; rollback puts a before-image back with it too
        (its first pass left the slot free)."""
        self._check_page(page_no)
        with PageGuard(self.pool, (self.file_id, page_no), write=True) as data:
            page = SlottedPage(data)
            if slot_no < page.num_slots and page.read(slot_no) is not None:
                # the image already reflects this insert (possibly with a
                # later in-place update's bytes, which also replay)
                return
            _place(page, page_no, slot_no, record)
        self._num_rows += 1

    def replay_update(self, page_no: int, slot_no: int, record: bytes) -> None:
        self._check_page(page_no)
        with PageGuard(self.pool, (self.file_id, page_no), write=True) as data:
            page = SlottedPage(data)
            if slot_no >= page.num_slots or page.read(slot_no) is None:
                # the image reflects a later delete of this slot, whose
                # record replays after us — nothing to update yet
                return
            if not page.update(slot_no, record):
                # the slot's footprint shrank (a later shorter record, or
                # compaction): reopen it at the full record size
                page.delete(slot_no)
                _place(page, page_no, slot_no, record)

    def replay_delete(self, page_no: int, slot_no: int) -> None:
        self._check_page(page_no)
        with PageGuard(self.pool, (self.file_id, page_no), write=True) as data:
            page = SlottedPage(data)
            if slot_no >= page.num_slots:
                return  # the insert this delete undoes was never applied
            deleted = page.delete(slot_no)
        if deleted:
            self._num_rows -= 1

    def recount(self) -> int:
        """Recompute the cached row count from the pages (recovery's
        authoritative pass after replay)."""
        count = 0
        for page_no in range(self.num_pages):
            with PageGuard(self.pool, (self.file_id, page_no)) as data:
                count += SlottedPage(data).live_count()
        self._num_rows = count
        return count


def _place(page: SlottedPage, page_no: int, slot_no: int, record: bytes) -> None:
    """Write *record* into the free slot *slot_no*, compacting the page
    once if its free region is too short."""
    if not page.place_at(slot_no, record):
        page.compact()
        if not page.place_at(slot_no, record):
            raise HeapError(f"record does not fit at ({page_no}, {slot_no})")
