"""WAL record catalog and binary codec.

Every record is a self-describing, self-verifying frame::

    [u32 body_len][u32 crc32(body)][body]
    body = [u64 lsn][u8 type][u64 txn_id]
           [u16 table_len][table utf-8][i32 page_no][i32 slot_no]
           [payload bytes...]

The CRC covers the whole body, so recovery can tell a torn tail (short
frame or bad CRC — stop, truncate) from corruption mid-log (bad CRC with
valid frames after it — impossible for an append-only log that is only
ever torn at the end, so recovery treats the first bad frame as the
tail).  LSNs are assigned densely by the writer; the checkpoint stores
the last LSN it covers, and redo skips records at or below it.

Record types (the *physiological* ones carry a page/slot address and a
byte payload that redo applies verbatim):

==============  ==========================================================
``BEGIN``       no longer written; older logs carry it and redo skips it
``COMMIT``      transaction end — the durability point (fsynced)
``ABORT``       no longer written; older logs carry it and redo skips it
``ALLOC``       heap page *page_no* of *table* allocated + formatted
``INSERT``      record bytes placed at (*page_no*, *slot_no*) of *table*
``UPDATE``      record bytes overwritten in place at (*page_no*, *slot_no*)
``DELETE``      slot (*page_no*, *slot_no*) of *table* tombstoned
``DDL``         JSON payload: a logically-replayed statement (CREATE/DROP
                TABLE, CREATE INDEX, CREATE/DROP VIEW, ANALYZE)
``CHECKPOINT``  JSON payload: marker written after a quiesced checkpoint
                install (legacy; kept so old logs stay readable)

``CHECKPOINT_BEGIN``  marker, no payload: a fuzzy checkpoint starts (older
                logs carry a JSON payload; recovery skips it)
``CHECKPOINT_END``    marker, no payload: a fuzzy checkpoint installed;
                ``checkpoint.bin``'s meta carries its ``redo_lsn`` (older
                logs carry a JSON payload; recovery skips it)
==============  ==========================================================
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, Tuple

_FRAME = struct.Struct(">II")  # body_len, crc
_BODY = struct.Struct(">QBQH")  # lsn, type, txn_id, table_len
_ADDR = struct.Struct(">ii")  # page_no, slot_no (-1 = not applicable)

FRAME_HEADER_SIZE = _FRAME.size

#: hard cap on one record's body; a frame claiming more is torn/corrupt
MAX_BODY_LEN = 16 * 1024 * 1024


class WalCodecError(Exception):
    """Raised on malformed record frames (bad CRC, short body, bad type)."""


class WalRecordType(enum.IntEnum):
    BEGIN = 1
    COMMIT = 2
    ABORT = 3
    ALLOC = 4
    INSERT = 5
    UPDATE = 6
    DELETE = 7
    DDL = 8
    CHECKPOINT = 9
    CHECKPOINT_BEGIN = 10
    CHECKPOINT_END = 11


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record."""

    lsn: int
    type: WalRecordType
    txn_id: int
    table: str = ""
    page_no: int = -1
    slot_no: int = -1
    payload: bytes = b""

    @property
    def is_physiological(self) -> bool:
        return self.type in (
            WalRecordType.ALLOC,
            WalRecordType.INSERT,
            WalRecordType.UPDATE,
            WalRecordType.DELETE,
        )


def encode_record(rec: WalRecord) -> bytes:
    """Serialize *rec* to one framed, CRC-protected byte string."""
    table = rec.table.encode("utf-8")
    body = (
        _BODY.pack(rec.lsn, int(rec.type), rec.txn_id, len(table))
        + table
        + _ADDR.pack(rec.page_no, rec.slot_no)
        + rec.payload
    )
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def decode_record(buf: bytes, offset: int = 0) -> Tuple[WalRecord, int]:
    """Decode one record at *offset*; returns ``(record, next_offset)``.

    Raises :class:`WalCodecError` on a short frame, CRC mismatch or
    unknown type — all of which recovery treats as the torn tail.
    """
    end = len(buf)
    if offset + FRAME_HEADER_SIZE > end:
        raise WalCodecError("short frame header")
    body_len, crc = _FRAME.unpack_from(buf, offset)
    if body_len < _BODY.size + _ADDR.size or body_len > MAX_BODY_LEN:
        raise WalCodecError(f"implausible body length {body_len}")
    body_start = offset + FRAME_HEADER_SIZE
    if body_start + body_len > end:
        raise WalCodecError("short body")
    body = bytes(buf[body_start : body_start + body_len])
    if zlib.crc32(body) != crc:
        raise WalCodecError("CRC mismatch")
    lsn, type_code, txn_id, table_len = _BODY.unpack_from(body, 0)
    try:
        rec_type = WalRecordType(type_code)
    except ValueError:
        raise WalCodecError(f"unknown record type {type_code}") from None
    pos = _BODY.size
    if pos + table_len + _ADDR.size > body_len:
        raise WalCodecError("table name overruns body")
    table = body[pos : pos + table_len].decode("utf-8")
    pos += table_len
    page_no, slot_no = _ADDR.unpack_from(body, pos)
    pos += _ADDR.size
    return (
        WalRecord(lsn, rec_type, txn_id, table, page_no, slot_no, body[pos:]),
        body_start + body_len,
    )


def iter_records(buf: bytes) -> Iterator[Tuple[WalRecord, int]]:
    """Yield ``(record, end_offset)`` for the valid prefix of *buf*.

    Stops silently at the first torn/corrupt frame; the last yielded
    ``end_offset`` is where the log should be truncated.
    """
    offset = 0
    while offset < len(buf):
        try:
            rec, offset = decode_record(buf, offset)
        except WalCodecError:
            return
        yield rec, offset


def valid_prefix(buf: bytes) -> Tuple[list, int]:
    """All records in the valid prefix, plus its byte length."""
    records = []
    end = 0
    for rec, off in iter_records(buf):
        records.append(rec)
        end = off
    return records, end
