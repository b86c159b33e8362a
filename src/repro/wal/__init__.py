"""Durability subsystem: write-ahead logging, checkpoints, recovery.

The simulated disk lives in memory, so durability is *snapshot + log*:
an opt-in ``Database(data_dir=...)`` opens a real on-disk WAL
(:mod:`.log`, record format in :mod:`.records`), snapshots the page
store atomically on CHECKPOINT (:mod:`.checkpoint`), and replays the
committed WAL suffix on open (:mod:`.recovery`).  The transaction
manager (:mod:`.manager`) is the engine-facing seam: transaction
lifecycle, rollback, strict table write locks, and the per-mutation
hooks that emit redo records.  Those same hooks feed the MVCC version
store (:mod:`.mvcc`), whose before-images give readers lock-free
snapshot isolation and are what rollback puts back; checkpoints are *fuzzy* — writers stay live, and
recovery redoes from the checkpoint's recorded ``redo_lsn``.
"""

from .checkpoint import (
    CHECKPOINT_FILE,
    CheckpointError,
    checkpoint_path,
    fuzzy_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from .log import (
    WAL_FILE,
    WalWriter,
    committed_txns,
    open_wal,
    read_wal,
    truncate_wal,
)
from .manager import LockTimeout, Transaction, TransactionTooLarge, TxnError, TxnManager
from .mvcc import Snapshot, VersionStore
from .records import (
    WalCodecError,
    WalRecord,
    WalRecordType,
    decode_record,
    encode_record,
    iter_records,
    valid_prefix,
)
from .recovery import RecoveryError, RecoveryReport, recover

__all__ = [
    "CHECKPOINT_FILE",
    "CheckpointError",
    "checkpoint_path",
    "fuzzy_checkpoint",
    "load_checkpoint",
    "write_checkpoint",
    "WAL_FILE",
    "WalWriter",
    "committed_txns",
    "open_wal",
    "read_wal",
    "truncate_wal",
    "LockTimeout",
    "Snapshot",
    "Transaction",
    "TransactionTooLarge",
    "TxnError",
    "TxnManager",
    "VersionStore",
    "WalCodecError",
    "WalRecord",
    "WalRecordType",
    "decode_record",
    "encode_record",
    "iter_records",
    "valid_prefix",
    "RecoveryError",
    "RecoveryReport",
    "recover",
]
