"""Transaction manager: txn lifecycle, rollback, table locks, WAL hooks.

This is the seam between the engine and durability.  It works with or
without a WAL writer attached:

* **Always** (even for a purely in-memory database): transaction ids,
  rollback (every row the transaction touched is put back to the
  before-image its version chain holds, indexes included) and strict
  table write locks held to transaction end.
* **With a writer** (``Database(data_dir=...)``): every heap mutation is
  also appended to the WAL as a physiological redo record, COMMIT
  fsyncs (group-batched), and a dirtied heap page's buffer frame is
  owned by its transaction (``BufferPool.own``), so never written, until
  COMMIT's fsync or ROLLBACK.  A write that would leave the pool too few
  unowned frames for its rollback is refused (``TransactionTooLarge``).

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


class TransactionTooLarge(TxnError):
    """A write would leave the buffer pool too few unowned frames."""


@dataclass
class Transaction:
    """One transaction's book-keeping."""

    id: int
    locked_tables: Set[str] = field(default_factory=set)
    #: True once this txn has appended at least one WAL record (only
    #: then is its COMMIT logged)
    logged: bool = False
    #: read view pinned at the txn's first SELECT (repeatable reads);
    #: released when the transaction resolves
    snapshot: Optional[Snapshot] = None
    #: the heap pages this txn owns in the buffer pool
    pages: List[PageId] = field(default_factory=list)


class _TableLock:
    """An exclusive lock with owner tracking (readers take none: MVCC).

    Carries its own cumulative statistics (acquisitions, waits that
    found the lock held, their total time) so ``sys_stat_locks`` can
    serve a per-table contention view without a second registry.
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

    #: frames the owned-frame bound leaves unowned for rollback, at most
    #: a quarter of the pool
    RESERVE_FRAMES = 8

    def __init__(self):
        #: the WAL, buffer pool and wait-event store, attached by the
        #: owning Database; ``lock_timeout`` bounds a table-lock wait (s)
        self.writer: Optional[WalWriter] = None
        self.pool = None
        self.waits = None
        self.lock_timeout = 10.0
        self.versions = VersionStore()
        self._next_txn_id = 1
        self._id_lock = threading.Lock()
        self._tls = threading.local()
        self._locks: Dict[str, _TableLock] = {}
        self._locks_guard = threading.Lock()
        #: transactions begun but not yet finished
        self._active: Set[int] = set()

    # -- txn lifecycle --------------------------------------------------------

    @property
    def next_txn_id(self) -> int:
        return self._next_txn_id

    def set_next_txn_id(self, value: int) -> None:
        with self._id_lock:
            self._next_txn_id = max(self._next_txn_id, value)

    def begin(self) -> Transaction:
        with self._id_lock:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            self._active.add(txn_id)
        return Transaction(txn_id)

    def current(self) -> Optional[Transaction]:
        """The transaction active on *this thread*, if any."""
        return getattr(self._tls, "txn", None)

    def activate(self, txn: Optional[Transaction]) -> "_Activation":
        """Context manager binding *txn* to the current thread, so heap
        mutations on this thread log and version under it."""
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
        self.versions.commit(txn.id)
        self._finish(txn)

    def rollback(self, txn: Transaction, catalog) -> None:
        """Put every row *txn* touched back to its before-image, then
        release its locks.

        Two passes over the before-images its version chains hold: every
        touched row still live leaves (index entries too), then every
        row that existed before the transaction goes back at its RID.
        After the first pass each page holds what it held at BEGIN, so
        once compacted it has room for every before-image, whatever
        order the rows were touched in.  Both passes run with no
        transaction bound to the thread, so nothing is WAL-logged or
        versioned — recovery never redoes an uncommitted transaction, so
        it must not redo its rollback either.
        """
        touched = [
            (catalog.table(table), rid, pre)
            for table, rid, pre in self.versions.before_images(txn.id)
            if catalog.has_table(table)  # dropped after the write
        ]
        with self.activate(None):
            for info, rid, _ in touched:
                row = info.heap.fetch(rid)
                if row is not None:
                    info.delete(rid, row)
            for info, rid, pre in touched:
                if pre is not None:
                    info.restore(rid, pre)
        self.versions.rollback(txn.id)
        self._finish(txn)

    def _finish(self, txn: Transaction) -> None:
        if txn.snapshot is not None:
            self.versions.release(txn.snapshot)
            txn.snapshot = None
        if txn.pages:
            # after COMMIT's fsync, and outside the statement lock: the
            # pool's own lock guards the frames
            self.pool.release(txn.pages)
        for table in sorted(txn.locked_tables):
            self._release_write(txn, table)
        txn.locked_tables.clear()
        with self._id_lock:
            self._active.discard(txn.id)

    # -- mutation hooks (called by HeapFile under an active transaction) ------
    #
    # Each hook does two jobs: hang the row's before-image on its version
    # chain (snapshots read it, and so does rollback — needed with or
    # without a WAL), and, when a writer is attached, append the
    # physiological *redo* record.  With no transaction bound to the
    # thread (transient tables, recovery replay, rollback itself) the
    # hooks are no-ops.

    def _log(
        self, txn: Transaction, rec_type: WalRecordType, *fields: Any, **kw: Any
    ) -> int:
        """Append one of *txn*'s records; returns its LSN."""
        txn.logged = True
        return self.writer.append(rec_type, txn.id, *fields, **kw)

    def _note_page(self, txn: Transaction, page_id: PageId, lsn: int) -> None:
        """*txn* dirtied *page_id* with the record at *lsn*: it owns the
        frame until it resolves."""
        if self.pool.own(page_id, txn.id, lsn):
            txn.pages.append(page_id)

    def admit(self) -> None:
        """Called before a row write starts (``TableInfo``): once the
        frames active transactions own have reached the pool's capacity
        less its reserve, the transaction on this thread is refused
        before any page changes, so its rollback finds a whole row at
        every RID and the reserve's frames free.  A row write owns at
        most two more pages, so the owned frames stop one past the
        bound."""
        pool = self.pool
        limit = pool.capacity - min(self.RESERVE_FRAMES, pool.capacity // 4)
        if pool.owned >= limit and self.current() is not None:
            raise TransactionTooLarge(
                f"transaction {self.current().id} refused: active transactions "
                f"own {pool.owned} of the buffer pool's {pool.capacity} frames, "
                f"and {limit} is the most they may own; split it up"
            )

    def on_alloc(self, table: str, page_id: PageId) -> None:
        txn = self.current()
        if txn is None:
            return
        # no before-image: page allocation is physical and
        # non-transactional (rollback tombstones rows but keeps the page)
        if self.writer is not None:
            lsn = self._log(txn, WalRecordType.ALLOC, table, page_id[1])
            self._note_page(txn, page_id, lsn)

    def on_insert(
        self, table: str, page_id: PageId, slot_no: int, record: bytes
    ) -> None:
        txn = self.current()
        if txn is None:
            return
        self.versions.record(table, (page_id[1], slot_no), txn.id, None)
        if self.writer is not None:
            lsn = self._log(
                txn, WalRecordType.INSERT, table, page_id[1], slot_no, record
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
        self.versions.record(table, (page_id[1], slot_no), txn.id, old_record)
        if self.writer is not None:
            lsn = self._log(
                txn, WalRecordType.UPDATE, table, page_id[1], slot_no, record
            )
            self._note_page(txn, page_id, lsn)

    def on_delete(
        self, table: str, page_id: PageId, slot_no: int, old_record: bytes
    ) -> None:
        txn = self.current()
        if txn is None:
            return
        self.versions.record(table, (page_id[1], slot_no), txn.id, old_record)
        if self.writer is not None:
            lsn = self._log(
                txn, WalRecordType.DELETE, table, page_id[1], slot_no
            )
            self._note_page(txn, page_id, lsn)

    def log_ddl(self, payload: bytes) -> None:
        """Log one autocommitted DDL statement under the current txn."""
        txn = self.current()
        if txn is None or self.writer is None:
            return
        self._log(txn, WalRecordType.DDL, payload=payload)

    def active_txn_ids(self) -> List[int]:
        """Transactions begun but not yet resolved."""
        with self._id_lock:
            return sorted(self._active)

    # -- table locks ----------------------------------------------------------

    def _lock_for(self, table: str) -> _TableLock:
        key = table.lower()
        with self._locks_guard:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = _TableLock()
            return lock

    def lock_table(self, txn: Transaction, table: str) -> None:
        """Acquire *table* exclusively for *txn* (held until txn end).

        A wait is read once, here: an acquisition that finds the lock
        held (one that times out too) records the wait as the
        ``lock.table`` wait event, in the lock's ``contended`` and
        ``wait_seconds``, and as the ``lock.acquire`` span's ``wait_ms``;
        one that finds it free records nothing.
        """
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
                start = time.monotonic()
                try:
                    while lock.writer is not None:
                        remaining = start + self.lock_timeout - time.monotonic()
                        if remaining <= 0:
                            raise LockTimeout(
                                f"timeout waiting for lock on table {table!r} "
                                f"({self.lock_timeout:.0f}s)"
                            )
                        lock.cond.wait(min(remaining, 0.5))
                    lock.writer = txn.id
                    lock.acquisitions += 1
                finally:
                    lock.writer_waiting -= 1
                    if contended:
                        waited = time.monotonic() - start
                        lock.contended += 1
                        lock.wait_seconds += waited
                        sp.add("wait_ms", waited * 1000.0)
                        if self.waits is not None:
                            self.waits.record("lock.table", waited)
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
