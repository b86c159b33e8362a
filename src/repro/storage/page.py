"""Slotted-page layout over a raw page image.

Layout::

    header:  [num_slots: u16][free_space_offset: u16]
    slots:   num_slots * [offset: u16][length: u16]   (grows forward)
    records: packed at the tail of the page           (grows backward)

A deleted slot has length 0xFFFF (tombstone); its slot number is never
reused so RIDs stay stable.  ``compact()`` squeezes out dead space without
renumbering live slots.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

HEADER_SIZE = 4
SLOT_SIZE = 4
TOMBSTONE = 0xFFFF


class PageError(Exception):
    """Raised on page-level corruption or capacity violations."""


class SlottedPage:
    """A view over a mutable page image (``bytearray``)."""

    def __init__(self, data: bytearray):
        self.data = data

    # -- header accessors -------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return struct.unpack_from(">H", self.data, 0)[0]

    @num_slots.setter
    def num_slots(self, n: int) -> None:
        struct.pack_into(">H", self.data, 0, n)

    @property
    def free_offset(self) -> int:
        """Start of the record heap (records live at [free_offset, page_end))."""
        return struct.unpack_from(">H", self.data, 2)[0]

    @free_offset.setter
    def free_offset(self, off: int) -> None:
        struct.pack_into(">H", self.data, 2, off)

    @classmethod
    def format(cls, data: bytearray) -> "SlottedPage":
        """Initialize a fresh page image."""
        page = cls(data)
        page.num_slots = 0
        page.free_offset = len(data)
        return page

    # -- slot accessors -----------------------------------------------------------

    def _slot(self, slot_no: int) -> Tuple[int, int]:
        if not 0 <= slot_no < self.num_slots:
            raise PageError(f"slot {slot_no} out of range (have {self.num_slots})")
        return struct.unpack_from(">HH", self.data, HEADER_SIZE + slot_no * SLOT_SIZE)

    def _set_slot(self, slot_no: int, offset: int, length: int) -> None:
        struct.pack_into(
            ">HH", self.data, HEADER_SIZE + slot_no * SLOT_SIZE, offset, length
        )

    # -- capacity -------------------------------------------------------------------

    def free_space(self) -> int:
        """Bytes available for one more record *including* its new slot."""
        slots_end = HEADER_SIZE + self.num_slots * SLOT_SIZE
        return self.free_offset - slots_end

    def can_fit(self, record_len: int) -> bool:
        return self.free_space() >= record_len + SLOT_SIZE

    # -- record operations -------------------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert a record, returning its slot number.

        ``num_slots`` is published *last*: a concurrent reader that
        observes the old slot count simply misses the new record, while
        one that observes the new count finds a fully written slot entry
        and record bytes — never a half-initialized slot.
        """
        if not self.can_fit(len(record)):
            raise PageError("page full")
        slot_no = self.num_slots
        new_off = self.free_offset - len(record)
        self.data[new_off : new_off + len(record)] = record
        self._set_slot(slot_no, new_off, len(record))
        self.free_offset = new_off
        self.num_slots = slot_no + 1
        return slot_no

    def place_at(self, slot_no: int, record: bytes) -> bool:
        """Place *record* at exactly *slot_no*, extending the slot
        directory with tombstones if needed.  Returns False when the
        page's free region is too short (the caller compacts and retries).

        Two callers need exact slot placement: WAL redo (a committed
        insert's RID must come back identical even when interleaved
        uncommitted inserts — which are *not* replayed — consumed the
        slots in between) and rollback (a before-image goes back under
        its original RID, where later redo records address it).
        """
        current = self.num_slots
        if slot_no < current:
            offset, length = self._slot(slot_no)
            if length != TOMBSTONE:
                raise PageError(f"slot {slot_no} already occupied")
            new_slots = 0
        else:
            new_slots = slot_no + 1 - current
        slots_end = HEADER_SIZE + (current + new_slots) * SLOT_SIZE
        if self.free_offset - slots_end < len(record):
            return False
        for filler in range(current, current + new_slots):
            self._set_slot(filler, 0, TOMBSTONE)
        new_off = self.free_offset - len(record)
        self.data[new_off : new_off + len(record)] = record
        self._set_slot(slot_no, new_off, len(record))
        self.free_offset = new_off
        if new_slots:
            self.num_slots = current + new_slots
        return True

    def read(self, slot_no: int) -> Optional[bytes]:
        """Record bytes, or ``None`` for a tombstone."""
        offset, length = self._slot(slot_no)
        if length == TOMBSTONE:
            return None
        return bytes(self.data[offset : offset + length])

    def delete(self, slot_no: int) -> bool:
        """Tombstone a record.  Returns False if already deleted."""
        offset, length = self._slot(slot_no)
        if length == TOMBSTONE:
            return False
        self._set_slot(slot_no, 0, TOMBSTONE)
        return True

    def update(self, slot_no: int, record: bytes) -> bool:
        """In-place update.  Returns False if the new record does not fit in
        the old record's footprint (caller must delete+reinsert elsewhere)."""
        offset, length = self._slot(slot_no)
        if length == TOMBSTONE:
            raise PageError(f"slot {slot_no} is deleted")
        if len(record) > length:
            return False
        self.data[offset : offset + len(record)] = record
        self._set_slot(slot_no, offset, len(record))
        return True

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(slot_no, record_bytes)`` for every live record."""
        for slot_no in range(self.num_slots):
            rec = self.read(slot_no)
            if rec is not None:
                yield slot_no, rec

    def live_count(self) -> int:
        return sum(1 for _ in self.records())

    def compact(self) -> None:
        """Re-pack live records at the tail, reclaiming dead space.

        Slot numbers are preserved (tombstones keep their slots), only the
        record heap is rewritten.
        """
        live: List[Tuple[int, bytes]] = list(self.records())
        end = len(self.data)
        for slot_no, rec in live:
            end -= len(rec)
            self.data[end : end + len(rec)] = rec
            self._set_slot(slot_no, end, len(rec))
        self.free_offset = end
