"""Multi-version concurrency control for readers.

The heap mutates in place (strict 2PL serializes *writers*), so versions
are kept as **pre-images**: whenever a transaction first touches a row,
the row's prior state is hung off an in-memory version chain keyed by
``(table, rid)``.  A reader acquires a :class:`Snapshot` — a commit
timestamp ``ts`` — and reconstructs, per chain, the newest state whose
writer committed at or before ``ts`` (or its own uncommitted state).
SELECTs therefore never take table locks and never block on writers;
DML keeps strict two-phase locking unchanged.  The same pre-images are
the undo log: rollback puts each chain head its transaction owns back
at its RID (:meth:`VersionStore.before_images`).

Chain shape (newest writer first)::

    chain[0].pre  = row state before the *latest* writer
    chain[i].pre  = row state before writer i  (= state after writer i+1)

``chain[i].commit_ts`` is the commit timestamp of writer *i*, or ``None``
while that writer is still active.  Because writers to one table hold the
table-exclusive lock until commit, chain order equals commit-timestamp
order, which makes both visibility and pruning a single forward walk.

Pruning: a committed version visible to *every* active snapshot (and to
all future ones, since timestamps only grow) will never be dereferenced
— the visibility walk stops *before* reading its ``pre`` — so it and
everything older can be dropped.  With no snapshots open, chains
collapse to at most one uncommitted entry.

All structures are guarded by one leaf lock; no callbacks run under it.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

RID = Tuple[int, int]


class _Version:
    """Pre-image of one row, recorded by one writer transaction."""

    __slots__ = ("txn_id", "commit_ts", "pre")

    def __init__(self, txn_id: int, pre: Optional[bytes]):
        self.txn_id = txn_id
        #: stamped at commit; ``None`` while the writer is active
        self.commit_ts: Optional[int] = None
        #: serialized row state *before* the writer touched it;
        #: ``None`` means the row did not exist (the writer inserted it)
        self.pre = pre

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Version(txn={self.txn_id}, ts={self.commit_ts})"


class Snapshot:
    """A frozen read view: everything committed at acquisition time.

    ``ts`` is the commit timestamp of the latest committed transaction;
    ``txn_id`` makes the owning transaction's *own* uncommitted writes
    visible (read-your-own-writes).  Statement snapshots pass
    ``txn_id=0`` (no transaction ever has id 0).
    """

    __slots__ = ("ts", "txn_id", "store", "acquired_at")

    def __init__(self, ts: int, txn_id: int, store: "VersionStore"):
        self.ts = ts
        self.txn_id = txn_id
        self.store = store
        self.acquired_at: float = 0.0

    def visible(self, version: _Version) -> bool:
        if version.txn_id == self.txn_id:
            return True
        ts = version.commit_ts
        return ts is not None and ts <= self.ts

    def scan_overlay(self, info) -> Optional[
        Tuple[Dict[RID, Optional[Tuple]], Dict[RID, Tuple]]
    ]:
        """What this snapshot must see differently from the live heap.

        Returns ``None`` when the heap already reflects this snapshot for
        every row of *info*'s table (the overwhelmingly common fast
        path), else ``(replace, ghosts)``:

        * ``replace[rid]`` — the row to yield *instead of* the heap row at
          ``rid`` (``None``: suppress it — the row did not exist yet)
        * ``ghosts[rid]`` — rows deleted from the heap after the snapshot
          began, to be resurrected into the scan

        Decoding happens here (with *info*'s schema), outside the store
        lock, so scans deal only in row tuples.
        """
        raw = self.store.raw_overlay(info.name, self)
        if raw is None:
            return None
        from ..storage.record import deserialize_row

        replace: Dict[RID, Optional[Tuple]] = {}
        ghosts: Dict[RID, Tuple] = {}
        heap = info.heap
        for rid, pre in raw.items():
            row = None if pre is None else deserialize_row(info.schema, pre)
            if heap.fetch(rid) is not None:
                replace[rid] = row
            elif row is not None:
                ghosts[rid] = row
        if not replace and not ghosts:
            return None
        return replace, ghosts


class VersionStore:
    """Version chains + snapshot registry + commit-timestamp authority."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: table -> rid -> chain (newest writer first)
        self._chains: Dict[str, Dict[RID, List[_Version]]] = {}
        #: active writer txn -> chains it contributed to
        self._by_txn: Dict[int, List[Tuple[str, RID]]] = {}
        #: commit timestamp of the latest committed *writing* transaction
        self.last_commit_ts = 0
        #: open snapshots: id(snapshot) -> ts
        self._snapshots: Dict[int, int] = {}
        self.versions_recorded = 0
        self.versions_pruned = 0
        self.snapshots_taken = 0

    # -- recording (called from TxnManager mutation hooks) --------------------

    def record(
        self, table: str, rid: RID, txn_id: int, pre: Optional[bytes]
    ) -> None:
        """Hang the pre-image of *rid* onto its chain for writer *txn_id*.

        Only the *first* touch per (txn, rid) matters: later writes by the
        same transaction overwrite its own uncommitted state, which no
        snapshot can ever need.
        """
        key = table.lower()
        with self._lock:
            chain = self._chains.setdefault(key, {}).setdefault(rid, [])
            if chain and chain[0].txn_id == txn_id and chain[0].commit_ts is None:
                return
            chain.insert(0, _Version(txn_id, pre))
            self._by_txn.setdefault(txn_id, []).append((key, rid))
            self.versions_recorded += 1

    def before_images(
        self, txn_id: int
    ) -> List[Tuple[str, RID, Optional[bytes]]]:
        """``(table, rid, pre)`` for every row active writer *txn_id*
        touched, in first-touch order: the chain head it owns, whose
        ``pre`` is the row as it was before the transaction (``None``: it
        inserted the row).  Rollback puts these back."""
        with self._lock:
            return [
                (key, rid, self._chains[key][rid][0].pre)
                for key, rid in self._by_txn.get(txn_id, ())
            ]

    # -- txn resolution -------------------------------------------------------

    def commit(self, txn_id: int) -> None:
        """Stamp *txn_id*'s versions with the next commit timestamp
        (read-only transactions don't advance the clock)."""
        with self._lock:
            touched = self._by_txn.pop(txn_id, None)
            if not touched:
                return
            self.last_commit_ts += 1
            ts = self.last_commit_ts
            for key, rid in touched:
                chain = self._chains.get(key, {}).get(rid)
                if not chain:
                    continue
                for version in chain:
                    if version.txn_id == txn_id and version.commit_ts is None:
                        version.commit_ts = ts
                self._prune_chain(key, rid)

    def rollback(self, txn_id: int) -> None:
        """Drop *txn_id*'s uncommitted versions (the heap was put back)."""
        with self._lock:
            touched = self._by_txn.pop(txn_id, None)
            if not touched:
                return
            for key, rid in touched:
                table = self._chains.get(key)
                if table is None:
                    continue
                chain = table.get(rid)
                if not chain:
                    continue
                chain[:] = [
                    v
                    for v in chain
                    if not (v.txn_id == txn_id and v.commit_ts is None)
                ]
                if not chain:
                    del table[rid]

    # -- snapshots ------------------------------------------------------------

    def acquire(self, txn_id: int = 0) -> Snapshot:
        with self._lock:
            snap = Snapshot(self.last_commit_ts, txn_id, self)
            snap.acquired_at = time.monotonic()
            self._snapshots[id(snap)] = snap.ts
            self.snapshots_taken += 1
            return snap

    def release(self, snap: Optional[Snapshot]) -> None:
        if snap is None:
            return
        with self._lock:
            was_min = self._snapshots.pop(id(snap), None)
            if was_min is None:
                return
            floor = min(self._snapshots.values(), default=None)
            if floor is None or floor > was_min:
                self._prune_all()

    def oldest_snapshot_ts(self) -> Optional[int]:
        with self._lock:
            return min(self._snapshots.values(), default=None)

    def active_snapshots(self) -> int:
        with self._lock:
            return len(self._snapshots)

    # -- visibility -----------------------------------------------------------

    def raw_overlay(
        self, table: str, snap: Snapshot
    ) -> Optional[Dict[RID, Optional[bytes]]]:
        """Per-rid serialized state *snap* must see instead of the heap.

        ``None`` (no entry needed anywhere) is the fast path: every chain
        head is visible to *snap*, so the live heap is already correct.
        """
        key = table.lower()
        with self._lock:
            chains = self._chains.get(key)
            if not chains:
                return None
            out: Dict[RID, Optional[bytes]] = {}
            for rid, chain in chains.items():
                image: Optional[bytes] = None
                rewound = False
                for version in chain:
                    if snap.visible(version):
                        break
                    image = version.pre
                    rewound = True
                if rewound:
                    out[rid] = image
            return out or None

    # -- pruning --------------------------------------------------------------

    def _prune_chain(self, key: str, rid: RID) -> None:
        """Drop the chain suffix no current or future snapshot can read.

        Must hold ``_lock``.  The boundary is the newest committed
        version visible to the oldest open snapshot: its ``pre`` (and
        everything older) is only read by walks that pass *through* it,
        which visibility makes impossible.
        """
        table = self._chains.get(key)
        if table is None:
            return
        chain = table.get(rid)
        if not chain:
            return
        floor = min(self._snapshots.values(), default=None)
        for i, version in enumerate(chain):
            ts = version.commit_ts
            if ts is not None and (floor is None or ts <= floor):
                dropped = len(chain) - i
                del chain[i:]
                self.versions_pruned += dropped
                break
        if not chain:
            del table[rid]
            if not table:
                del self._chains[key]

    def _prune_all(self) -> None:
        for key in list(self._chains):
            for rid in list(self._chains.get(key, ())):
                self._prune_chain(key, rid)

    # -- maintenance ----------------------------------------------------------

    def drop_table(self, table: str) -> None:
        """Forget every version of a dropped table (a later table with
        the same name must not inherit stale chains)."""
        key = table.lower()
        with self._lock:
            gone = self._chains.pop(key, None)
            if gone:
                self.versions_pruned += sum(len(c) for c in gone.values())
            for touched in self._by_txn.values():
                touched[:] = [(k, r) for k, r in touched if k != key]

    def live_versions(self) -> int:
        with self._lock:
            return sum(
                len(chain)
                for table in self._chains.values()
                for chain in table.values()
            )

    def tables_with_versions(self) -> Iterable[str]:
        with self._lock:
            return list(self._chains)
