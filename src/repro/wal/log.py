"""The write-ahead log file: append, group-commit fsync, tail scan.

One :class:`WalWriter` owns ``<data_dir>/wal.log``.  Appends go through a
single lock that assigns dense LSNs; durability is a separate step so
commits can *batch*: every committer appends its COMMIT record, then asks
``flush_to(lsn)`` — whichever committer grabs the flush lock first fsyncs
the whole appended tail, and the ones behind it find their LSN already
durable and skip the fsync entirely.  ``fsyncs``/``appends`` counters make
the batching measurable (bench E18).

Failpoint sites (see :mod:`repro.qa.faults`):

* ``wal.append`` — one hit per record append.  ``partial`` mode writes a
  prefix of the encoded record, fsyncs it (so the torn bytes really reach
  the file) and dies: recovery must discard exactly this tail.
* ``wal.fsync`` — one hit per physical fsync.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Tuple

from ..obs.trace import trace_span
from ..qa import faults
from .records import (
    WalRecord,
    WalRecordType,
    encode_record,
    valid_prefix,
)

WAL_FILE = "wal.log"


class WalWriter:
    """Append-only writer over one WAL file (thread-safe)."""

    def __init__(
        self,
        path: str,
        start_lsn: int = 1,
        waits=None,
    ):
        self.path = path
        #: LSN the next append will receive
        self.next_lsn = start_lsn
        #: highest LSN known durable (flushed + fsynced)
        self.flushed_lsn = start_lsn - 1
        #: wait-event registry for ``wal.write`` / ``wal.fsync`` (optional)
        self.waits = waits
        self.appends = 0
        self.fsyncs = 0
        self._append_lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._file = open(path, "ab")
        #: highest LSN appended (may be ahead of flushed_lsn)
        self._appended_lsn = start_lsn - 1

    # -- appending ------------------------------------------------------------

    def append(
        self,
        rec_type: WalRecordType,
        txn_id: int,
        table: str = "",
        page_no: int = -1,
        slot_no: int = -1,
        payload: bytes = b"",
    ) -> int:
        """Append one record; returns its LSN.  Not yet durable."""
        with trace_span("wal.append", merge=True), self._append_lock:
            lsn = self.next_lsn
            self.next_lsn += 1
            data = encode_record(
                WalRecord(lsn, rec_type, txn_id, table, page_no, slot_no, payload)
            )
            action = faults.FAILPOINTS.hit("wal.append")
            if action == "partial":
                # A torn write: half the frame reaches disk, then the
                # plug is pulled.  fsync first so the torn bytes are
                # really there for recovery to trip over.
                self._file.write(data[: max(1, len(data) // 2)])
                self._file.flush()
                os.fsync(self._file.fileno())
                faults.crash()
            start = time.perf_counter() if self.waits is not None else 0.0
            self._file.write(data)
            if self.waits is not None:
                self.waits.record("wal.write", time.perf_counter() - start)
            self.appends += 1
            self._appended_lsn = lsn
            if action == "after":
                self._file.flush()
                os.fsync(self._file.fileno())
                faults.crash()
            return lsn

    # -- durability -----------------------------------------------------------

    def flush_to(self, lsn: int) -> None:
        """Make every record up to *lsn* durable (group-commit batching).

        Committers that arrive while another commit's fsync is in flight
        block on the flush lock, then discover their LSN already covered
        and return without a second fsync.
        """
        if self.flushed_lsn >= lsn:
            return
        with self._flush_lock:
            if self.flushed_lsn >= lsn:
                return  # a concurrent committer's fsync covered us
            with self._append_lock:
                target = self._appended_lsn
                self._file.flush()
            action = faults.FAILPOINTS.hit("wal.fsync")
            if action == "before":  # pragma: no cover - hit() exits first
                faults.crash()
            start = time.perf_counter() if self.waits is not None else 0.0
            # One wal.fsync span per real fsync: the skip paths above
            # (already covered by a concurrent committer) record
            # nothing, so span counts reconcile exactly with the
            # ``fsyncs`` counter even under group commit.
            with trace_span("wal.fsync") as sp:
                os.fsync(self._file.fileno())
                self.fsyncs += 1
                sp.add("covered_lsn", float(target))
            if self.waits is not None:
                self.waits.record("wal.fsync", time.perf_counter() - start)
            self.flushed_lsn = target
            if action == "after":
                faults.crash()

    def flush_all(self) -> None:
        with self._append_lock:
            appended = self._appended_lsn
        self.flush_to(appended)

    def close(self) -> None:
        try:
            self.flush_all()
        finally:
            self._file.close()

    # -- maintenance ----------------------------------------------------------

    def reset(self, start_lsn: int) -> None:
        """Truncate the log (post-checkpoint) and restart LSNs."""
        with self._append_lock, self._flush_lock:
            self._file.close()
            self._file = open(self.path, "wb")
            self._file.flush()
            os.fsync(self._file.fileno())
            self.next_lsn = start_lsn
            self._appended_lsn = start_lsn - 1
            self.flushed_lsn = start_lsn - 1

    def retain_from(self, redo_lsn: int) -> int:
        """Drop the log prefix below *redo_lsn* (fuzzy checkpoint GC).

        Unlike :meth:`reset`, records at or above *redo_lsn* survive —
        they may belong to transactions still in flight or to dirty
        pages the checkpoint could not flush — and the LSN counters keep
        counting.  The rewrite is atomic (tmp + fsync + rename), so a
        crash at any point leaves either the old log or the new one.
        Returns the number of records dropped.
        """
        with self._append_lock, self._flush_lock:
            self._file.flush()
            os.fsync(self._file.fileno())
            with open(self.path, "rb") as f:
                buf = f.read()
            records, _ = valid_prefix(buf)
            kept = [rec for rec in records if rec.lsn >= redo_lsn]
            dropped = len(records) - len(kept)
            if dropped == 0:
                return 0
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as f:
                for rec in kept:
                    f.write(encode_record(rec))
                f.flush()
                os.fsync(f.fileno())
            self._file.close()
            os.replace(tmp, self.path)
            self._file = open(self.path, "ab")
            return dropped


def read_wal(path: str) -> Tuple[List[WalRecord], int, int]:
    """Read the valid prefix of the WAL at *path*.

    Returns ``(records, valid_bytes, torn_bytes)`` where ``torn_bytes``
    is the length of the discarded tail (0 for a clean log).
    """
    if not os.path.exists(path):
        return [], 0, 0
    with open(path, "rb") as f:
        buf = f.read()
    records, end = valid_prefix(buf)
    return records, end, len(buf) - end


def truncate_wal(path: str, valid_bytes: int) -> None:
    """Discard the torn tail in place (called once by recovery)."""
    with open(path, "r+b") as f:
        f.truncate(valid_bytes)
        f.flush()
        os.fsync(f.fileno())


def committed_txns(records) -> set:
    """Transaction ids with a durable COMMIT record in *records*."""
    return {
        rec.txn_id
        for rec in records
        if rec.type is WalRecordType.COMMIT
    }


def open_wal(data_dir: str, start_lsn: int, waits=None) -> WalWriter:
    return WalWriter(os.path.join(data_dir, WAL_FILE), start_lsn, waits=waits)
