"""Sessions: per-connection statement context and transaction state.

Every statement runs under a session.  A session owns at most one open
*explicit* transaction (``BEGIN`` ... ``COMMIT``/``ROLLBACK``); outside
of one, each DML statement autocommits.  The :class:`Database` keeps a
default session for the plain ``db.execute(sql)`` API, and the socket
server creates one session per connection — so connections get
independent transaction state, and ``sys_stat_activity`` can attribute
statements to sessions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..wal.manager import Transaction
    from .database import Database, QueryResult


class Session:
    """One logical connection to a :class:`Database`."""

    def __init__(self, db: "Database", session_id: int):
        self.db = db
        self.id = session_id
        #: the open explicit transaction, if any
        self.txn: Optional["Transaction"] = None
        self.closed = False

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None

    def execute(self, sql: str) -> "QueryResult":
        return self.db.execute(sql, session=self)

    def query(self, sql: str) -> "QueryResult":
        return self.db.query(sql, session=self)

    def close(self) -> None:
        """End the session; an open transaction rolls back (the semantics
        of a dropped connection)."""
        if self.closed:
            return
        if self.txn is not None:
            self.db.rollback_session_txn(self)
        self.closed = True
        self.db._forget_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "in txn" if self.in_transaction else "idle"
        return f"Session(id={self.id}, {state})"
