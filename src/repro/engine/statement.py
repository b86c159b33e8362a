"""The per-statement context of :class:`~repro.engine.Database`."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import ActivityEntry
    from ..physical import PhysicalPlan
    from ..sql import Token
    from ..storage import IOStats
    from ..wal import Snapshot, Transaction
    from .session import Session


@dataclass
class StatementContext:
    """One statement's trip through the engine: what the entry point, the
    read and write envelopes and the recorder hand each other."""

    session: Session
    #: the text as the client sent it; None for a nested internal select
    #: and for ``insert_rows`` — neither is shown as activity or logged
    sql: Optional[str] = None
    #: the statement's ``sys_stat_activity`` row (user statements only)
    entry: Optional[ActivityEntry] = None
    #: the tokens the text was parsed from: the statement fingerprint's
    #: input, so the harvest never reads the text again
    tokens: Sequence[Token] = ()
    kind: str = "select"  # select | insert | update | delete
    #: taken once parsed: planning time and DML latency count from here
    start: float = field(default_factory=time.perf_counter)
    #: the transaction it runs in (None: a SELECT outside one)
    txn: Optional[Transaction] = None
    #: the MVCC read view of a SELECT
    snapshot: Optional[Snapshot] = None
    #: the disk counters when a DML statement started
    io0: Optional[IOStats] = None
    #: the SELECT's plan, or the scan that located an UPDATE/DELETE's
    #: rows; its fingerprint when the plan-cache entry already knows it;
    #: and whether it came out of the plan cache
    plan: Optional[PhysicalPlan] = None
    plan_fp: Optional[str] = None
    plan_cache_hit: bool = False

    def phase(self, name: str) -> None:
        if self.entry is not None:
            self.entry.phase = name
