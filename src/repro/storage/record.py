"""Row (de)serialization to the byte format stored in slotted pages.

Format per record::

    [null bitmap: ceil(ncols/8) bytes]
    per column (skipped when NULL):
        INT    -> 8 bytes signed big-endian
        FLOAT  -> 8 bytes IEEE-754 big-endian
        BOOL   -> 1 byte
        DATE   -> 4 bytes unsigned ordinal
        TEXT   -> 2-byte length prefix + UTF-8 bytes

The format is self-delimiting given the schema, which the catalog always
supplies, so records carry no schema metadata of their own.
"""

from __future__ import annotations

import struct
from datetime import date
from typing import Any, Optional, Sequence, Tuple

from ..types import DataType, Schema


class RecordError(Exception):
    """Raised on malformed record bytes or oversized values."""


MAX_TEXT_BYTES = 0xFFFF

_TEXT_LEN = struct.Struct(">H")

_FIXED_CODES = {
    DataType.INT: "q",
    DataType.FLOAT: "d",
    DataType.BOOL: "?",
    DataType.DATE: "I",
}


def _compile_segments(schema: Schema) -> tuple:
    """Compile the decode plan for rows of *schema* with no NULL columns
    and keep it on the schema (``_deserialize_fast`` reads it from there).

    Consecutive fixed-width columns collapse into one ``struct.Struct``;
    TEXT columns (variable length) break the runs.  Each segment is either
    ``(struct, date_positions)`` or ``None`` for a TEXT column.
    """
    segments = []
    run: list = []
    date_positions: list = []
    for dtype in schema.dtypes():
        code = _FIXED_CODES.get(dtype)
        if code is None:  # TEXT
            if run:
                segments.append(
                    (struct.Struct(">" + "".join(run)), tuple(date_positions))
                )
                run, date_positions = [], []
            segments.append(None)
        else:
            if dtype is DataType.DATE:
                date_positions.append(len(run))
            run.append(code)
    if run:
        segments.append(
            (struct.Struct(">" + "".join(run)), tuple(date_positions))
        )
    schema._decode_segments = tuple(segments)
    return schema._decode_segments


def serialize_row(schema: Schema, row: Sequence[Any]) -> bytes:
    """Encode a validated row tuple into record bytes."""
    ncols = len(schema)
    bitmap = bytearray((ncols + 7) // 8)
    parts = [bytes(bitmap)]  # placeholder; replaced below
    body = bytearray()
    for i, (col, value) in enumerate(zip(schema, row)):
        if value is None:
            bitmap[i // 8] |= 1 << (i % 8)
            continue
        dtype = col.dtype
        if dtype is DataType.INT:
            body += struct.pack(">q", value)
        elif dtype is DataType.FLOAT:
            body += struct.pack(">d", value)
        elif dtype is DataType.BOOL:
            body += b"\x01" if value else b"\x00"
        elif dtype is DataType.DATE:
            body += struct.pack(">I", value.toordinal())
        elif dtype is DataType.TEXT:
            data = value.encode("utf-8")
            if len(data) > MAX_TEXT_BYTES:
                raise RecordError(f"TEXT value of {len(data)} bytes is too long")
            body += struct.pack(">H", len(data)) + data
        else:  # pragma: no cover - exhaustive over DataType
            raise RecordError(f"unhandled type {dtype}")
    parts[0] = bytes(bitmap)
    parts.append(bytes(body))
    return b"".join(parts)


def _deserialize_fast(
    schema: Schema, data: bytes, pos: int
) -> Optional[Tuple[Any, ...]]:
    """Decode a record known to have no NULLs; None on length mismatch
    (caller falls back to the checked column-by-column path)."""
    values: list = []
    segments = schema._decode_segments
    if segments is None:
        segments = _compile_segments(schema)
    try:
        for segment in segments:
            if segment is None:  # TEXT
                (length,) = _TEXT_LEN.unpack_from(data, pos)
                pos += 2
                raw = data[pos : pos + length]
                if len(raw) != length:
                    return None
                values.append(raw.decode("utf-8"))
                pos += length
            else:
                fixed, date_positions = segment
                part = fixed.unpack_from(data, pos)
                if date_positions:
                    part = list(part)
                    for j in date_positions:
                        part[j] = date.fromordinal(part[j])
                values.extend(part)
                pos += fixed.size
    except struct.error:
        return None
    if pos != len(data):
        return None
    return tuple(values)


def deserialize_row(schema: Schema, data: bytes) -> Tuple[Any, ...]:
    """Decode record bytes back into a row tuple."""
    ncols = len(schema)
    bitmap_len = (ncols + 7) // 8
    if len(data) < bitmap_len:
        raise RecordError("record shorter than its null bitmap")
    bitmap = data[:bitmap_len]
    pos = bitmap_len
    if not int.from_bytes(bitmap, "big"):
        # no NULLs: take the precompiled fixed-layout fast path
        row = _deserialize_fast(schema, data, pos)
        if row is not None:
            return row
    values = []
    for i, col in enumerate(schema):
        if bitmap[i // 8] & (1 << (i % 8)):
            values.append(None)
            continue
        dtype = col.dtype
        try:
            if dtype is DataType.INT:
                (v,) = struct.unpack_from(">q", data, pos)
                pos += 8
            elif dtype is DataType.FLOAT:
                (v,) = struct.unpack_from(">d", data, pos)
                pos += 8
            elif dtype is DataType.BOOL:
                v = data[pos] != 0
                pos += 1
            elif dtype is DataType.DATE:
                (ordinal,) = struct.unpack_from(">I", data, pos)
                v = date.fromordinal(ordinal)
                pos += 4
            elif dtype is DataType.TEXT:
                (length,) = struct.unpack_from(">H", data, pos)
                pos += 2
                raw = data[pos : pos + length]
                if len(raw) != length:
                    raise RecordError("truncated TEXT payload")
                v = raw.decode("utf-8")
                pos += length
            else:  # pragma: no cover
                raise RecordError(f"unhandled type {dtype}")
        except struct.error as exc:
            raise RecordError(f"truncated record: {exc}") from exc
        values.append(v)
    if pos != len(data):
        raise RecordError(f"{len(data) - pos} trailing bytes after record")
    return tuple(values)
