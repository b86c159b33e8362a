"""Vectorized page decode: slotted-page bytes straight to column arrays.

The row engine decodes a page record-by-record (``SlottedPage.records``
then ``deserialize_row``), materializing one Python tuple per row.  The
columnar scan instead parses the slot directories with numpy and gathers
each column with a single fancy-index per column — no per-row Python
objects until an operator actually asks for rows.

Decoding works on a *span* of pages at once: the per-column numpy-call
overhead (a handful of microseconds each) is paid once per span instead
of once per page, which matters because a 4 KB page holds only a few
dozen records.

Two readers share the one record decoder (``_decode_records``): the scan
hands it every live slot of a span in page order (``decode_pages_columns``),
the index nested-loop join the slots a list of RIDs names, each distinct
page fixed once (``gather_columns``).

Every record decodes here.  The null bitmaps become per-column validity
masks (``ColumnBatch``'s ``(data, valid)`` form) and a column holding a
NULL reads its present lanes only; a span with no NULL bit set does no
mask work at all.  A record that does not line up with the schema
raises the ``RecordError`` that ``deserialize_row`` raises for it.
Decoded values are bit-identical to the row path: the byte format (see
``storage.record``) is the single source of truth for both.
"""

from __future__ import annotations

from datetime import date
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..storage.heap import RID, HeapFile
from ..storage.page import HEADER_SIZE, SLOT_SIZE, TOMBSTONE, PageError
from ..storage.record import RecordError, deserialize_row
from ..types import DataType, Schema
from .columnar import ColumnData

#: fixed-width columns: byte width, big-endian view dtype, native dtype
_FIXED = {
    DataType.INT: (8, ">i8", np.int64),
    DataType.FLOAT: (8, ">f8", np.float64),
}

#: distinct heap pages a gather copies and decodes at a time: what it
#: holds beyond its output stays this size however long the RID list, as
#: the scan's decode span does.  A span costs ≈75 µs of numpy calls
#: whatever it holds, so few pages a span tax a sparse RID list (one RID
#: a page: 16 pages a span meet the per-RID loop at ≈300 RIDs, 32 at
#: ≈200, 64 at ≈150); many pages a span hold more at once (Q4's 4,239
#: RIDs over 156 pages: the query's traced allocations peak at 0.8, 1.1
#: and 1.5 MB; with the per-RID loop's row tuples, 0.9 MB) — E29
GATHER_SPAN_PAGES = 32


def decode_pages_columns(
    schema: Schema, raws: Sequence[bytes]
) -> Tuple[List[ColumnData], int]:
    """Decode a span of pages into ``(columns, num_rows)``.  Record order
    is page order then slot order — exactly the row scan's order."""
    offs_parts: List[np.ndarray] = []
    lens_parts: List[np.ndarray] = []
    base = 0
    for raw in raws:
        num_slots = (raw[0] << 8) | raw[1]
        if num_slots:
            slots = np.frombuffer(
                raw, dtype=">u2", count=num_slots * 2, offset=HEADER_SIZE
            ).reshape(-1, 2)
            live = slots[:, 1] != TOMBSTONE
            if live.all():
                offs_parts.append(slots[:, 0].astype(np.int64) + base)
                lens_parts.append(slots[:, 1].astype(np.int64))
            elif live.any():
                offs_parts.append(slots[:, 0][live].astype(np.int64) + base)
                lens_parts.append(slots[:, 1][live].astype(np.int64))
        base += len(raw)
    if not offs_parts:
        return [], 0
    joined = raws[0] if len(raws) == 1 else b"".join(raws)
    offs = (
        offs_parts[0] if len(offs_parts) == 1 else np.concatenate(offs_parts)
    )
    lens = (
        lens_parts[0] if len(lens_parts) == 1 else np.concatenate(lens_parts)
    )
    return _decode_records(schema, joined, offs, lens), int(offs.shape[0])


def _decode_records(
    schema: Schema, joined: bytes, offs: np.ndarray, lens: np.ndarray
) -> List[ColumnData]:
    """The records at byte offsets *offs* (lengths *lens*) of *joined* as
    one ``(data, valid)`` column per schema column, in the order given:
    ``valid`` is ``None`` for a column with no NULL, and a NULL lane holds
    zero (``None`` in an object array)."""
    buf = np.frombuffer(joined, dtype=np.uint8)
    n = int(offs.shape[0])
    bitmap_len = (len(schema) + 7) // 8
    bitmaps = buf[offs[:, None] + np.arange(bitmap_len)]
    has_nulls = bool(bitmaps.any())
    cur = offs + bitmap_len
    columns: List[ColumnData] = []
    for i, col in enumerate(schema):
        valid = None
        if has_nulls:
            null = (bitmaps[:, i >> 3] & (1 << (i & 7))) != 0
            if null.any():
                valid = ~null
        if valid is None:
            data, cur = _decode_column(col.dtype, buf, joined, cur)
        else:
            # a NULL column has no bytes: decode the present lanes only
            present, ends = _decode_column(col.dtype, buf, joined, cur[valid])
            fill = None if present.dtype == object else 0
            data = np.full(n, fill, dtype=present.dtype)
            data[valid] = present
            cur[valid] = ends  # *cur* is always this function's own array
        columns.append((data, valid))
    ends = offs + lens
    if not np.array_equal(cur, ends):
        # the row decoder names what is wrong with the first such record
        bad = int(np.flatnonzero(cur != ends)[0])
        deserialize_row(schema, joined[int(offs[bad]) : int(ends[bad])])
        raise RecordError("record does not line up with its schema")
    return columns


def _decode_column(
    dtype: DataType, buf: np.ndarray, joined: bytes, at: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One column's values stored at byte offsets *at*, and the offsets
    just past them."""
    if dtype is DataType.TEXT:
        starts = at + 2
        ends = starts + _u16(buf, at)
        data = np.empty(len(at), dtype=object)
        data[:] = [
            joined[s:e].decode("utf-8")
            for s, e in zip(starts.tolist(), ends.tolist())
        ]
        return data, ends
    if dtype is DataType.BOOL:
        return buf[at] != 0, at + 1
    if dtype is DataType.DATE:
        ordinals = (
            np.ascontiguousarray(buf[at[:, None] + np.arange(4)])
            .view(">u4")
            .ravel()
        )
        data = np.empty(len(at), dtype=object)
        data[:] = [date.fromordinal(o) for o in ordinals.tolist()]
        return data, at + 4
    width, view, native = _FIXED[dtype]
    data = (
        np.ascontiguousarray(buf[at[:, None] + np.arange(width)])
        .view(view)
        .ravel()
        .astype(native)
    )
    return data, at + width


def _u16(buf: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The big-endian 16-bit values at byte offsets *at* of *buf*."""
    return (buf[at].astype(np.int64) << 8) | buf[at + 1]


def gather_columns(
    heap: HeapFile, schema: Schema, rids: Sequence[RID]
) -> Tuple[List[ColumnData], np.ndarray]:
    """Fetch the records at *rids* (any order, repeats allowed) page by
    page: every distinct page is fixed once, ``GATHER_SPAN_PAGES`` at a
    time, and the slots the RIDs name are decoded straight into columns.

    Returns ``(columns, live)``: one row per RID whose slot holds a
    record, in the order the RIDs were given, and the positions in *rids*
    those rows came from (a tombstoned slot — deleted since its index
    entry was made — yields no row, as ``HeapFile.fetch`` yields ``None``).
    A record that does not line up with *schema* raises what
    ``HeapFile.fetch`` raises for it, a slot past the page's directory raises the ``PageError`` of
    ``SlottedPage._slot``, a page past the file ``HeapFile``'s error."""
    n = len(rids)
    if n == 0:
        nothing = np.empty(0, dtype=np.int64)
        return _decode_records(schema, b"", nothing, nothing), nothing
    flat = np.fromiter(chain.from_iterable(rids), dtype=np.int64, count=2 * n)
    pages = flat[0::2]
    slots = flat[1::2]
    by_page = np.argsort(pages, kind="stable")
    distinct, first = np.unique(pages[by_page], return_index=True)
    bounds = np.append(first, n)
    # one array of n rows per column (and a mask once a column shows a
    # NULL), filled span by span at the positions the span's RIDs have
    # in *rids*
    out: List[np.ndarray] = []
    masks: List[Optional[np.ndarray]] = []
    alive = np.ones(n, dtype=bool)
    for lo in range(0, len(distinct), GATHER_SPAN_PAGES):
        span = distinct[lo : lo + GATHER_SPAN_PAGES]
        raws = [heap.page_bytes(page_no) for page_no in span.tolist()]
        sel = by_page[bounds[lo] : bounds[lo + len(span)]]
        base = np.searchsorted(span, pages[sel]) * len(raws[0])
        joined = raws[0] if len(raws) == 1 else b"".join(raws)
        buf = np.frombuffer(joined, dtype=np.uint8)
        slot = slots[sel]
        num_slots = _u16(buf, base)
        bad = np.flatnonzero((slot < 0) | (slot >= num_slots))
        if len(bad):
            raise PageError(
                f"slot {slot[bad[0]]} out of range (have {num_slots[bad[0]]})"
            )
        entry = base + HEADER_SIZE + slot * SLOT_SIZE
        offs = _u16(buf, entry) + base
        lens = _u16(buf, entry + 2)
        live = lens != TOMBSTONE
        if not live.all():
            alive[sel[~live]] = False
            sel, offs, lens = sel[live], offs[live], lens[live]
        columns = _decode_records(schema, joined, offs, lens)
        if not out:
            out = [np.empty(n, dtype=data.dtype) for data, _ in columns]
            masks = [None] * len(columns)
        for c, (data, valid) in enumerate(columns):
            out[c][sel] = data
            if valid is not None:
                if masks[c] is None:
                    masks[c] = np.ones(n, dtype=bool)
                masks[c][sel] = valid
    if alive.all():
        return list(zip(out, masks)), np.arange(n)
    return [
        (data[alive], None if valid is None else valid[alive])
        for data, valid in zip(out, masks)
    ], np.flatnonzero(alive)
