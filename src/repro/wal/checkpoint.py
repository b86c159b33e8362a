"""Checkpoints: an atomic on-disk snapshot of the whole page store.

The simulated disk lives in memory, so durability is *snapshot + log*:
a checkpoint writes every table's heap pages plus the catalog metadata
(schemas, index definitions, views, LSN/txn counters) to
``<data_dir>/checkpoint.bin``, and the WAL carries everything since.
Recovery = load the last installed checkpoint, redo the WAL's committed
suffix.

The file is installed atomically: written to a temp name, fsynced,
``rename(2)``d over the old one.  A crash mid-checkpoint therefore leaves
the *previous* checkpoint + the full WAL — strictly recoverable, just a
longer redo.  Because the WAL is only truncated *after* the install, a
crash between install and truncate leaves records the snapshot already
contains; redo skips them by LSN (`meta["last_lsn"]`).

Layout::

    [8B magic "RPCKPT1\\n"][u32 meta_len][meta JSON][pages...][u32 crc32]

where ``pages`` is, per table in meta order, ``num_pages * page_size``
raw bytes, and the CRC covers everything before it.

Failpoint sites: ``checkpoint.begin``, ``.flush`` and ``.end`` in
:func:`fuzzy_checkpoint`, the protocol that takes the snapshot without
quiescing writers; ``checkpoint.page`` — one hit per page image written.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

from ..obs.trace import trace_span
from . import failpoints
from .records import WalRecordType

CHECKPOINT_FILE = "checkpoint.bin"
_MAGIC = b"RPCKPT1\n"


class CheckpointError(Exception):
    """Raised on unreadable/corrupt checkpoint files."""


def checkpoint_path(data_dir: str) -> str:
    return os.path.join(data_dir, CHECKPOINT_FILE)


def fuzzy_checkpoint(db) -> Tuple[int, int, List[int], int]:
    """Snapshot *db*'s page store and trim its WAL without quiescing
    writers; returns ``(checkpoint_lsn, redo_lsn, active_txns,
    pages_flushed)``.

    No table locks are taken — transactions stay open across the
    checkpoint.  The caller holds the engine's statement lock, so no
    heap mutation interleaves; COMMITs still proceed, they only touch
    the WAL.  Everything it needs to know about pages it reads off the
    buffer pool's frames:

    1. log a ``CHECKPOINT_BEGIN`` marker (no payload);
    2. write back every dirty frame no transaction owns — owned frames
       are skipped (no-steal: uncommitted bytes never reach disk), so
       their on-disk snapshot images are stale;
    3. ``redo_lsn`` = the smallest ``rec_lsn`` of a frame still dirty —
       no record below it is needed to rebuild any page, every record
       at or above it is replayed idempotently on recovery;
    4. snapshot the page store, stamp ``redo_lsn`` into the meta,
       drop WAL records below ``redo_lsn``, and log a ``CHECKPOINT_END``
       marker (no payload).

    Recovery redoes committed work from ``redo_lsn`` against the
    (partly stale, partly ahead) snapshot images; replay is
    idempotent, so images that already contain a suffix record
    converge instead of corrupting.
    """
    txn, pool = db.txn, db.pool
    writer = txn.writer
    att = txn.active_txn_ids()
    with trace_span("checkpoint.begin") as sp:
        sp.add("active_txns", float(len(att)))
        action = failpoints.FAILPOINTS.hit("checkpoint.begin")
        begin_lsn = writer.append(WalRecordType.CHECKPOINT_BEGIN, 0)
        writer.flush_to(begin_lsn)
        if action is not None:
            failpoints.crash()
    flushed = 0
    with trace_span("checkpoint.flush") as sp:
        for pid in pool.dirty_pages():
            action = failpoints.FAILPOINTS.hit("checkpoint.flush")
            if pool.flush_page(pid):
                flushed += 1
            if action is not None:
                failpoints.crash()
        writer.flush_all()
        sp.add("pages_flushed", float(flushed))
    last = writer.flushed_lsn
    rec = pool.min_rec_lsn()
    redo_lsn = rec if rec is not None else last + 1
    with trace_span("checkpoint.end") as sp:
        sp.add("redo_lsn", float(redo_lsn))
        write_checkpoint(db, last, redo_lsn)
        writer.retain_from(redo_lsn)
        action = failpoints.FAILPOINTS.hit("checkpoint.end")
        lsn = writer.append(WalRecordType.CHECKPOINT_END, 0)
        writer.flush_to(lsn)
        if action is not None:
            failpoints.crash()
    return last, redo_lsn, att, flushed


def collect_meta(db, last_lsn: int, redo_lsn: int) -> Dict[str, Any]:
    """The catalog metadata one checkpoint carries (JSON-safe)."""
    tables: List[Dict[str, Any]] = []
    for info in db.catalog.tables():
        tables.append(
            {
                "name": info.name,
                "columns": [
                    [c.name, c.dtype.name, c.nullable] for c in info.schema
                ],
                "pages": info.heap.num_pages,
                "num_rows": info.heap.num_rows,
                "analyzed": info.stats is not None,
                "indexes": [
                    {
                        "name": ix.name,
                        "columns": list(ix.columns),
                        # every index is a B+-tree; the field stays so
                        # older code can open this directory
                        "kind": "btree",
                        "clustered": ix.clustered,
                    }
                    for ix in info.indexes.values()
                ],
            }
        )
    return {
        "version": 2,
        "page_size": db.disk.page_size,
        "last_lsn": last_lsn,
        "next_txn_id": db.txn.next_txn_id,
        "tables": tables,
        "views": [
            {"name": v.name, "sql": v.sql} for v in db.views.values()
        ],
        # the snapshot's page images may be *stale* for pages the flush
        # pass had to skip (no-steal); redo must start at the minimum
        # recLSN of those pages, not at last_lsn + 1
        "redo_lsn": redo_lsn,
    }


def write_checkpoint(db, last_lsn: int, redo_lsn: int) -> str:
    """Snapshot *db* into ``checkpoint.bin`` in its ``data_dir`` (atomic
    install).

    The caller has flushed the buffer pool's *committed* dirty pages
    and left transaction-owned pages unflushed (no-steal keeps
    uncommitted bytes out of the snapshot); ``redo_lsn`` — the minimum
    recLSN over pages still dirty — makes recovery's redo pass start
    early enough to rebuild the stale images.
    """
    meta = collect_meta(db, last_lsn, redo_lsn)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    data_dir = db.data_dir
    final = checkpoint_path(data_dir)
    tmp = final + ".tmp"
    crc = 0
    with open(tmp, "wb") as f:
        def emit(chunk: bytes) -> None:
            nonlocal crc
            crc = zlib.crc32(chunk, crc)
            f.write(chunk)

        emit(_MAGIC)
        emit(struct.pack(">I", len(meta_bytes)))
        emit(meta_bytes)
        for table in meta["tables"]:
            info = db.catalog.table(table["name"])
            for page in db.disk.page_images(info.heap.file_id):
                action = failpoints.FAILPOINTS.hit("checkpoint.page")
                if action == "partial":
                    f.write(bytes(page)[: db.disk.page_size // 2])
                    f.flush()
                    os.fsync(f.fileno())
                    failpoints.crash()
                emit(bytes(page))
                if action == "after":
                    f.flush()
                    os.fsync(f.fileno())
                    failpoints.crash()
        f.write(struct.pack(">I", crc))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, final)
    _fsync_dir(data_dir)
    return final


def load_checkpoint(
    data_dir: str,
) -> Optional[Tuple[Dict[str, Any], Dict[str, List[bytes]]]]:
    """Load the installed checkpoint, or ``None`` if none exists.

    Returns ``(meta, {table_name: [page bytes, ...]})``.  A stale
    ``.tmp`` from a crashed checkpoint is ignored (and cleaned up).
    """
    tmp = checkpoint_path(data_dir) + ".tmp"
    if os.path.exists(tmp):
        os.unlink(tmp)  # a checkpoint that never installed
    path = checkpoint_path(data_dir)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < len(_MAGIC) + 8 or buf[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError("bad checkpoint magic")
    if zlib.crc32(buf[:-4]) != struct.unpack(">I", buf[-4:])[0]:
        raise CheckpointError("checkpoint CRC mismatch")
    pos = len(_MAGIC)
    (meta_len,) = struct.unpack_from(">I", buf, pos)
    pos += 4
    meta = json.loads(buf[pos : pos + meta_len].decode("utf-8"))
    pos += meta_len
    page_size = meta["page_size"]
    pages: Dict[str, List[bytes]] = {}
    for table in meta["tables"]:
        images = []
        for _ in range(table["pages"]):
            images.append(buf[pos : pos + page_size])
            pos += page_size
        pages[table["name"]] = images
    return meta, pages


def _fsync_dir(path: str) -> None:
    """Make a rename durable (best effort on platforms that allow it)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
