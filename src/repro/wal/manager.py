"""Transaction manager: txn lifecycle, undo, table locks, WAL hooks.

This is the seam between the engine and durability.  It works with or
without a WAL writer attached:

* **Always** (even for a purely in-memory database): transaction ids,
  per-transaction *undo* logs (logical inverse operations applied on
  ROLLBACK, with index maintenance), strict table write locks held to
  transaction end, shared statement-scoped read locks, and the
  no-steal eviction guard.
* **With a writer** (``Database(data_dir=...)``): every heap mutation is
  also appended to the WAL as a physiological redo record, COMMIT
  fsyncs (group-batched), and dirty pages are tracked with the LSN of
  their latest record so the buffer pool can enforce WAL-before-data on
  writeback.

Concurrency model (documented in docs/RECOVERY.md): writers take a
table-exclusive lock at first touch and hold it to COMMIT/ROLLBACK
(strict two-phase locking), so a transaction's uncommitted rows are
never read *or overwritten* by another writer.  Readers do **not**
lock: every mutation hook also hangs the row's pre-image on the
:class:`~repro.wal.mvcc.VersionStore`, and a SELECT runs against a
:class:`~repro.wal.mvcc.Snapshot` (commit-timestamp read view) — see
``mvcc.py``.  Statement snapshots give read-committed, transaction
snapshots give repeatable reads, and readers never block on writers.
Lock waits (writer/writer only) are bounded by ``lock_timeout`` — a
timeout aborts the waiting statement rather than deadlocking.

For fuzzy checkpoints the manager also tracks, per dirty page, the LSN
that *first* dirtied it since it was last written back (its recLSN):
the checkpoint's redo start point is the minimum recLSN over pages
still dirty after the checkpoint's flush pass.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..obs.trace import trace_span
from .log import WalWriter
from .mvcc import Snapshot, VersionStore
from .records import WalRecordType

PageId = Tuple[int, int]


class TxnError(Exception):
    """Transaction protocol violations (nested BEGIN, DDL in txn, ...)."""


class LockTimeout(TxnError):
    """A table lock could not be acquired within ``lock_timeout``."""


@dataclass
class Transaction:
    """One transaction's book-keeping."""

    id: int
    session_id: int = 0
    explicit: bool = False
    #: logical inverse ops, applied in reverse on rollback
    undo: List[Tuple[Any, ...]] = field(default_factory=list)
    locked_tables: Set[str] = field(default_factory=set)
    #: True once this txn has appended at least one WAL record
    logged: bool = False
    #: read view pinned at the txn's first SELECT (repeatable reads);
    #: released when the transaction resolves
    snapshot: Optional[Snapshot] = None
    #: commit timestamp assigned by the VersionStore (None: wrote nothing)
    commit_ts: Optional[int] = None


class _TableLock:
    """An exclusive lock with owner tracking (readers take none: MVCC).

    Carries its own cumulative statistics (acquisitions, contended
    acquisitions, total wait) so ``sys_stat_locks`` can serve a per-table
    contention view without a second registry.
    """

    __slots__ = (
        "cond",
        "writer",
        "writer_waiting",
        "acquisitions",
        "contended",
        "wait_seconds",
    )

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.writer: Optional[int] = None  # owning txn id
        self.writer_waiting = 0
        self.acquisitions = 0
        self.contended = 0
        self.wait_seconds = 0.0


class TxnManager:
    """Transaction lifecycle + locking + (optional) WAL logging."""

    def __init__(
        self,
        writer: Optional[WalWriter] = None,
        waits=None,
        lock_timeout: float = 10.0,
    ):
        self.writer = writer
        self.waits = waits
        self.lock_timeout = lock_timeout
        self.versions = VersionStore()
        self._next_txn_id = 1
        self._id_lock = threading.Lock()
        self._tls = threading.local()
        self._locks: Dict[str, _TableLock] = {}
        self._locks_guard = threading.Lock()
        #: dirty page -> (owning active txn id, LSN of its latest record);
        #: the buffer pool's no-steal guard consults this
        self._page_txn: Dict[PageId, Tuple[int, int]] = {}
        #: dirty page -> LSN that first dirtied it since last writeback
        #: (ARIES recLSN; cleared by the buffer pool's clean hook)
        self._page_rec_lsn: Dict[PageId, int] = {}
        self._page_guard = threading.Lock()
        #: transactions begun but not yet finished (checkpoint ATT)
        self._active: Dict[int, float] = {}

    # -- txn lifecycle --------------------------------------------------------

    @property
    def next_txn_id(self) -> int:
        return self._next_txn_id

    def set_next_txn_id(self, value: int) -> None:
        with self._id_lock:
            self._next_txn_id = max(self._next_txn_id, value)

    def begin(self, session_id: int = 0, explicit: bool = False) -> Transaction:
        with self._id_lock:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            self._active[txn_id] = time.monotonic()
        return Transaction(txn_id, session_id, explicit)

    def current(self) -> Optional[Transaction]:
        """The transaction active on *this thread*, if any."""
        return getattr(self._tls, "txn", None)

    def activate(self, txn: Optional[Transaction]) -> "_Activation":
        """Context manager binding *txn* to the current thread, so heap
        mutations on this thread log/undo under it."""
        return _Activation(self._tls, txn)

    def commit(self, txn: Transaction) -> None:
        """Make *txn* durable (WAL COMMIT + fsync) and release its locks.

        The commit timestamp is stamped *before* the table locks drop,
        so the next writer of any row this txn touched is guaranteed a
        later timestamp — version chains stay in commit order.
        """
        if self.writer is not None and txn.logged:
            lsn = self.writer.append(WalRecordType.COMMIT, txn.id)
            self.writer.flush_to(lsn)
        txn.commit_ts = self.versions.commit(txn.id)
        self._finish(txn)

    def rollback(self, txn: Transaction, catalog) -> None:
        """Undo every change *txn* made, then release its locks.

        Undo runs with no transaction bound to the thread, so the
        compensating heap mutations are neither WAL-logged nor re-undone
        — recovery never redoes an uncommitted transaction, so its
        compensations must not be redone either.
        """
        with self.activate(None):
            for op in reversed(txn.undo):
                self._undo_one(catalog, op)
        txn.undo.clear()
        if self.writer is not None and txn.logged:
            self.writer.append(WalRecordType.ABORT, txn.id)
        self.versions.rollback(txn.id)
        self._finish(txn)

    def _finish(self, txn: Transaction) -> None:
        if txn.snapshot is not None:
            self.versions.release(txn.snapshot)
            txn.snapshot = None
        with self._page_guard:
            doomed = [
                pid
                for pid, (owner, _) in self._page_txn.items()
                if owner == txn.id
            ]
            for pid in doomed:
                del self._page_txn[pid]
        for table in sorted(txn.locked_tables):
            self._release_write(txn, table)
        txn.locked_tables.clear()
        with self._id_lock:
            self._active.pop(txn.id, None)

    # -- undo -----------------------------------------------------------------

    def _undo_one(self, catalog, op: Tuple[Any, ...]) -> None:
        from ..storage.record import deserialize_row

        kind, table = op[0], op[1]
        if not catalog.has_table(table):
            return  # table dropped after the write (DDL autocommits)
        info = catalog.table(table)
        if kind == "insert":
            _, _, rid = op
            row = info.heap.fetch(rid)
            if row is not None:
                info.delete(rid, row)
        elif kind == "delete":
            _, _, rid, old_bytes = op
            info.restore(rid, deserialize_row(info.schema, old_bytes))
        elif kind == "update":
            # an in-place update: the current (new) row sits at *rid*.
            # Tombstone + restore keeps the RID stable even when the old
            # record is longer than the shrunk slot footprint.
            _, _, rid, old_bytes = op
            new_row = info.heap.fetch(rid)
            if new_row is not None:
                info.delete(rid, new_row)
            info.restore(rid, deserialize_row(info.schema, old_bytes))
        else:  # pragma: no cover - defensive
            raise TxnError(f"unknown undo op {kind!r}")

    # -- mutation hooks (called by HeapFile under an active transaction) ------
    #
    # Each hook does two jobs: record the logical *undo* op on the active
    # transaction (needed with or without a WAL — rollback is always
    # supported), and, when a writer is attached, append the physiological
    # *redo* record.  With no transaction bound to the thread (transient
    # tables, recovery replay, undo itself) the hooks are no-ops.

    def _ensure_begin(self, txn: Transaction) -> None:
        if not txn.logged:
            txn.logged = True
            self.writer.append(WalRecordType.BEGIN, txn.id)

    def _note_page(self, txn: Transaction, page_id: PageId, lsn: int) -> None:
        with self._page_guard:
            self._page_txn[page_id] = (txn.id, lsn)
            self._page_rec_lsn.setdefault(page_id, lsn)

    def on_alloc(self, table: str, page_id: PageId) -> None:
        txn = self.current()
        if txn is None:
            return
        # no undo: page allocation is physical and non-transactional
        # (rollback tombstones rows but keeps the page)
        if self.writer is not None:
            self._ensure_begin(txn)
            lsn = self.writer.append(
                WalRecordType.ALLOC, txn.id, table, page_id[1]
            )
            self._note_page(txn, page_id, lsn)

    def on_insert(
        self, table: str, page_id: PageId, slot_no: int, record: bytes
    ) -> None:
        txn = self.current()
        if txn is None:
            return
        txn.undo.append(("insert", table, (page_id[1], slot_no)))
        self.versions.record(table, (page_id[1], slot_no), txn.id, None)
        if self.writer is not None:
            self._ensure_begin(txn)
            lsn = self.writer.append(
                WalRecordType.INSERT, txn.id, table, page_id[1], slot_no, record
            )
            self._note_page(txn, page_id, lsn)

    def on_update(
        self,
        table: str,
        page_id: PageId,
        slot_no: int,
        record: bytes,
        old_record: bytes,
    ) -> None:
        txn = self.current()
        if txn is None:
            return
        txn.undo.append(("update", table, (page_id[1], slot_no), old_record))
        self.versions.record(table, (page_id[1], slot_no), txn.id, old_record)
        if self.writer is not None:
            self._ensure_begin(txn)
            lsn = self.writer.append(
                WalRecordType.UPDATE, txn.id, table, page_id[1], slot_no, record
            )
            self._note_page(txn, page_id, lsn)

    def on_delete(
        self, table: str, page_id: PageId, slot_no: int, old_record: bytes
    ) -> None:
        txn = self.current()
        if txn is None:
            return
        txn.undo.append(("delete", table, (page_id[1], slot_no), old_record))
        self.versions.record(table, (page_id[1], slot_no), txn.id, old_record)
        if self.writer is not None:
            self._ensure_begin(txn)
            lsn = self.writer.append(
                WalRecordType.DELETE, txn.id, table, page_id[1], slot_no
            )
            self._note_page(txn, page_id, lsn)

    def log_ddl(self, payload: bytes) -> None:
        """Log one autocommitted DDL statement under the current txn."""
        txn = self.current()
        if txn is None or self.writer is None:
            return
        self._ensure_begin(txn)
        self.writer.append(WalRecordType.DDL, txn.id, payload=payload)

    # -- buffer-pool integration (no-steal, WAL-before-data) ------------------

    def may_evict(self, page_id: PageId) -> bool:
        """No-steal: a page dirtied by an *active* transaction must stay
        in the pool until that transaction resolves."""
        with self._page_guard:
            return page_id not in self._page_txn

    def before_page_write(self, page_id: PageId) -> None:
        """WAL-before-data: the log must be durable up to the LSN of the
        page's latest record before the page image goes down."""
        if self.writer is None:
            return
        with self._page_guard:
            entry = self._page_txn.get(page_id)
        if entry is not None:
            self.writer.flush_to(entry[1])

    def page_clean(self, page_id: PageId) -> None:
        """The buffer pool wrote this page back: its recLSN resets (the
        next record to touch it starts a fresh dirty interval)."""
        with self._page_guard:
            self._page_rec_lsn.pop(page_id, None)

    # -- fuzzy-checkpoint bookkeeping ----------------------------------------

    def active_txn_ids(self) -> List[int]:
        """Transactions begun but not yet resolved (checkpoint ATT)."""
        with self._id_lock:
            return sorted(self._active)

    def dirty_page_table(self) -> Dict[PageId, int]:
        """page -> recLSN for every page dirtied since its last writeback."""
        with self._page_guard:
            return dict(self._page_rec_lsn)

    def min_rec_lsn(self) -> Optional[int]:
        """The redo start point: no record below this LSN is needed to
        rebuild any page still dirty in the pool."""
        with self._page_guard:
            if not self._page_rec_lsn:
                return None
            return min(self._page_rec_lsn.values())

    # -- table locks ----------------------------------------------------------

    def _lock_for(self, table: str) -> _TableLock:
        key = table.lower()
        with self._locks_guard:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = _TableLock()
            return lock

    def _timed_wait(self, lock: _TableLock, ready, table: str) -> float:
        """Wait on *lock.cond* until ``ready()``; record contended time.
        Returns the seconds spent waiting."""
        deadline = time.monotonic() + self.lock_timeout
        start = time.monotonic()
        try:
            while not ready():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise LockTimeout(
                        f"timeout waiting for lock on table {table!r} "
                        f"({self.lock_timeout:.0f}s)"
                    )
                lock.cond.wait(min(remaining, 0.5))
        finally:
            waited = time.monotonic() - start
            if self.waits is not None and waited > 0.0005:
                self.waits.record("lock.table", waited)
        return waited

    def lock_table(self, txn: Transaction, table: str) -> None:
        """Acquire *table* exclusively for *txn* (held until txn end)."""
        key = table.lower()
        if key in txn.locked_tables:
            return
        lock = self._lock_for(key)
        with trace_span("lock.acquire") as sp:
            sp.set_attr("table", key)
            sp.set_attr("mode", "exclusive")
            with lock.cond:
                lock.writer_waiting += 1
                contended = lock.writer is not None
                try:
                    waited = self._timed_wait(
                        lock, lambda: lock.writer is None, table
                    )
                    lock.writer = txn.id
                    lock.acquisitions += 1
                    lock.wait_seconds += waited
                    if contended:
                        lock.contended += 1
                        sp.add("wait_ms", waited * 1000.0)
                finally:
                    lock.writer_waiting -= 1
        txn.locked_tables.add(key)

    def _release_write(self, txn: Transaction, table: str) -> None:
        lock = self._lock_for(table)
        with lock.cond:
            if lock.writer == txn.id:
                lock.writer = None
                lock.cond.notify_all()

    def lock_rows(self) -> List[Dict[str, Any]]:
        """Point-in-time view of every table lock ever touched, for
        ``sys_stat_locks``: current holder/waiters plus cumulative
        acquisition and contention statistics."""
        with self._locks_guard:
            items = sorted(self._locks.items())
        rows: List[Dict[str, Any]] = []
        for table, lock in items:
            with lock.cond:
                rows.append(
                    {
                        "table": table,
                        "holder_txn": lock.writer or 0,
                        "writers_waiting": lock.writer_waiting,
                        "acquisitions": lock.acquisitions,
                        "contended": lock.contended,
                        "wait_ms": lock.wait_seconds * 1000.0,
                    }
                )
        return rows


class _Activation:
    """Bind/unbind a transaction to the current thread."""

    __slots__ = ("_tls", "_txn", "_prev")

    def __init__(self, tls, txn: Optional[Transaction]):
        self._tls = tls
        self._txn = txn
        self._prev: Optional[Transaction] = None

    def __enter__(self) -> Optional[Transaction]:
        self._prev = getattr(self._tls, "txn", None)
        self._tls.txn = self._txn
        return self._txn

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tls.txn = self._prev
