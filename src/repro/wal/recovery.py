"""Crash recovery: checkpoint load + committed-suffix WAL redo.

``recover(db, data_dir)`` rebuilds a database's state on open:

1. **Load the checkpoint** (if one exists): recreate every table from the
   snapshot metadata and install its raw page images; remember which
   tables were ANALYZEd and which indexes existed.
2. **Scan the WAL's valid prefix** and truncate the torn tail in place
   (a crash mid-append leaves a short or CRC-broken final frame; the
   record it belonged to was never acknowledged, so discarding it is
   correct, not lossy).
3. **Redo pass** over records with ``lsn >= checkpoint.redo_lsn`` (a
   fuzzy checkpoint's redo point is the minimum recLSN over pages it
   could not flush; quiesced/legacy checkpoints have none and default to
   ``last_lsn + 1``):
   * page ALLOCs replay for *every* transaction — allocation is physical
     and survives rollback, and later committed records address pages by
     number, so the page space must match the original timeline;
   * INSERT/UPDATE/DELETE replay only for transactions with a durable
     COMMIT record, verbatim at their logged (page, slot);
   * DDL records (committed only) re-execute logically: CREATE/DROP
     TABLE and VIEW apply immediately (later records may reference
     them); CREATE INDEX and ANALYZE are *deferred*, because replayed
     heap mutations do not maintain index structures or statistics.
4. **Rebuild**: recount rows, build every surviving index definition
   from the recovered heaps, re-ANALYZE every table that had statistics.

No undo pass exists: uncommitted transactions' records are simply never
redone.  This stays sound under *fuzzy* checkpoints because the flush
pass honours no-steal — a page owned by an in-flight transaction is
skipped, so snapshots never contain uncommitted data; the price is that
skipped pages are stale in the snapshot, which is exactly what the
early ``redo_lsn`` plus idempotent replay repairs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set

from ..sql import (
    AnalyzeStmt,
    CreateIndexStmt,
    CreateTableStmt,
    CreateViewStmt,
    DropTableStmt,
    DropViewStmt,
    parse,
)
from ..types import Column, DataType, Schema
from .checkpoint import load_checkpoint
from .log import WAL_FILE, committed_txns, read_wal, truncate_wal
from .records import WalRecordType


class RecoveryError(Exception):
    """Raised when the log and the recovered state contradict each other."""


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    checkpoint_found: bool = False
    tables_restored: int = 0
    records_scanned: int = 0
    records_applied: int = 0
    committed_txns: int = 0
    uncommitted_txns: int = 0
    torn_bytes: int = 0
    indexes_rebuilt: int = 0
    tables_analyzed: int = 0
    next_lsn: int = 1
    next_txn_id: int = 1
    notes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"checkpoint={'yes' if self.checkpoint_found else 'no'} "
            f"tables={self.tables_restored} wal_records={self.records_scanned} "
            f"applied={self.records_applied} committed={self.committed_txns} "
            f"discarded_txns={self.uncommitted_txns} "
            f"torn_bytes={self.torn_bytes} indexes={self.indexes_rebuilt}"
        )


def _schema_from_meta(name: str, columns: List[List[Any]]) -> Schema:
    return Schema(
        Column(cname, DataType[dtype], name, nullable)
        for cname, dtype, nullable in columns
    )


def recover(db, data_dir: str) -> RecoveryReport:
    """Rebuild *db* (freshly constructed, empty) from *data_dir*."""
    report = RecoveryReport()
    #: index definitions to build after replay: (name, table, columns,
    #: kind value, clustered)
    pending_indexes: List[Dict[str, Any]] = []
    analyzed: Set[str] = set()

    base_lsn = 0
    redo_lsn = 1
    loaded = load_checkpoint(data_dir)
    if loaded is not None:
        meta, pages = loaded
        report.checkpoint_found = True
        base_lsn = int(meta["last_lsn"])
        # quiesced/legacy checkpoints carry no redo_lsn: their images are
        # fully current, so redo starts right after the snapshot
        redo_lsn = int(meta.get("redo_lsn", base_lsn + 1))
        report.next_txn_id = int(meta["next_txn_id"])
        if meta["page_size"] != db.disk.page_size:
            raise RecoveryError(
                f"checkpoint page size {meta['page_size']} != "
                f"database page size {db.disk.page_size}"
            )
        for t in meta["tables"]:
            schema = _schema_from_meta(t["name"], t["columns"])
            info = db.catalog.create_table(t["name"], schema)
            db.disk.restore_pages(info.heap.file_id, pages[t["name"]])
            if t.get("analyzed"):
                analyzed.add(t["name"].lower())
            for ix in t["indexes"]:
                pending_indexes.append({**ix, "table": t["name"]})
        for v in meta.get("views", []):
            _replay_ddl(db, v["sql"], pending_indexes, analyzed)
        report.tables_restored = len(meta["tables"])

    wal_path = os.path.join(data_dir, WAL_FILE)
    records, valid_bytes, torn = read_wal(wal_path)
    if torn:
        truncate_wal(wal_path, valid_bytes)
        report.torn_bytes = torn
        report.notes.append(f"discarded {torn} torn tail bytes")
    report.records_scanned = len(records)

    committed = committed_txns(records)
    seen_txns = {r.txn_id for r in records if r.lsn >= redo_lsn and r.txn_id}
    report.committed_txns = len(committed & seen_txns)
    report.uncommitted_txns = len(seen_txns - committed)

    catalog = db.catalog
    for rec in records:
        if rec.lsn < redo_lsn:
            continue  # the checkpoint snapshot already contains this
        if rec.type is WalRecordType.DDL:
            if rec.txn_id in committed:
                sql = json.loads(rec.payload.decode("utf-8"))["sql"]
                _replay_ddl(db, sql, pending_indexes, analyzed)
                report.records_applied += 1
            continue
        if (
            not rec.is_physiological  # BEGIN/COMMIT/ABORT/CHECKPOINT markers
            or not catalog.has_table(rec.table)  # dropped later in the log
            or (rec.type is not WalRecordType.ALLOC and rec.txn_id not in committed)
        ):
            continue
        heap = catalog.table(rec.table).heap
        if rec.type is WalRecordType.ALLOC:
            heap.replay_alloc(rec.page_no)
        elif rec.type is WalRecordType.INSERT:
            heap.replay_insert(rec.page_no, rec.slot_no, rec.payload)
        elif rec.type is WalRecordType.UPDATE:
            heap.replay_update(rec.page_no, rec.slot_no, rec.payload)
        else:
            heap.replay_delete(rec.page_no, rec.slot_no)
        report.records_applied += 1

    # -- rebuild derived state -------------------------------------------------
    for info in catalog.tables():
        info.heap.recount()
    for ix in pending_indexes:
        table = ix["table"]
        if not catalog.has_table(table):
            continue
        columns = list(ix["columns"])
        info = catalog.table(table)
        if columns[0] in info.indexes:
            continue  # already built (duplicate definition in the log)
        catalog.create_index(
            ix["name"],
            table,
            columns if len(columns) > 1 else columns[0],
            bool(ix["clustered"]),
        )
        report.indexes_rebuilt += 1
    for name in sorted(analyzed):
        if catalog.has_table(name):
            catalog.analyze(name)
            report.tables_analyzed += 1

    max_lsn = records[-1].lsn if records else 0
    report.next_lsn = max(base_lsn, max_lsn) + 1
    max_txn = max((r.txn_id for r in records), default=0)
    report.next_txn_id = max(report.next_txn_id, max_txn + 1)
    return report


def _replay_ddl(
    db,
    sql: str,
    pending_indexes: List[Dict[str, Any]],
    analyzed: Set[str],
) -> None:
    """Logically re-apply one committed DDL statement: a DDL record's,
    or a view definition the checkpoint carries."""
    from ..engine.views import ViewDef

    stmt = parse(sql)
    catalog = db.catalog
    if isinstance(stmt, CreateTableStmt):
        if catalog.has_table(stmt.table):
            return  # fuzzy redo: the snapshot already carries this table
        catalog.create_table(stmt.table, stmt.schema())
        for name, column in stmt.primary_key_indexes():
            pending_indexes.append(
                {
                    "name": name,
                    "table": stmt.table,
                    "columns": [column],
                    "clustered": True,
                }
            )
    elif isinstance(stmt, DropTableStmt):
        if catalog.has_table(stmt.table):
            catalog.drop_table(stmt.table)
        key = stmt.table.lower()
        pending_indexes[:] = [
            ix for ix in pending_indexes if ix["table"].lower() != key
        ]
        analyzed.discard(key)
    elif isinstance(stmt, CreateIndexStmt):
        pending_indexes.append(
            {
                "name": stmt.name,
                "table": stmt.table,
                "columns": stmt.columns,
                "clustered": stmt.clustered,
            }
        )
    elif isinstance(stmt, CreateViewStmt):
        db.views[stmt.name.lower()] = ViewDef(stmt.name, stmt.select, sql)
    elif isinstance(stmt, DropViewStmt):
        db.views.pop(stmt.name.lower(), None)
    elif isinstance(stmt, AnalyzeStmt):
        if stmt.table is None:
            analyzed.update(info.name.lower() for info in catalog.tables())
        else:
            analyzed.add(stmt.table.lower())
    else:
        raise RecoveryError(f"unexpected DDL record: {sql!r}")
