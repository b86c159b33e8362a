"""Structured query log: the per-query feedback record.

Every user-facing statement — SELECTs and, since PR 10, DML — leaves one
:class:`QueryLogRecord` in a bounded ring buffer: the SQL text, a
structural *plan fingerprint* (stable across literal changes), estimated
vs. actual cardinality and the resulting q-error, modeled cost vs.
measured I/O, planning/execution latency, and session/transaction
attribution (``kind``/``session_id``/``txn_id``).

This is the feedback store estimator-correction work needs: group records
by fingerprint, compare ``est_rows`` with ``actual_rows``, and you have
the classic observed-cardinality training signal without rerunning
anything.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List


def q_error(estimated: float, actual: float) -> float:
    """The standard cardinality-estimation error metric (always ≥ 1).

    Edge cases are defined, not accidental: zero (or negative) counts on
    either side are clamped to one row before the ratio — so ``est=0,
    act=0`` is a perfect 1.0, and ``est=0, act=100`` scores the same 100x
    as ``est=1, act=100`` instead of dividing by zero.  Non-finite inputs
    (NaN/inf from broken estimates) return ``inf``, which orders, rather
    than NaN, which does not.
    """
    inf = math.inf
    if not (-inf < estimated < inf and -inf < actual < inf):  # NaN fails too
        return inf
    est = estimated if estimated > 1.0 else 1.0
    act = actual if actual > 1.0 else 1.0
    return est / act if est > act else act / est


def plan_fingerprint(plan: Any) -> str:
    """Structural hash of a physical plan: operator kinds, shapes, and the
    tables/indexes they touch — but not predicate literals, so the same
    plan shape for different constants shares a fingerprint."""
    parts: List[str] = []

    def visit(node: Any, depth: int) -> None:
        label = type(node).__name__
        table = getattr(node, "table", None)
        if table is not None:
            label += f":{getattr(table, 'name', table)}"
        index = getattr(node, "index", None)
        if index is not None:
            label += f":{getattr(index, 'name', index)}"
        parts.append(f"{depth}/{label}")
        for child in node.children():
            visit(child, depth + 1)

    visit(plan, 0)
    return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()[:12]


@dataclass
class QueryLogRecord:
    """One executed query's feedback row."""

    sql: str
    fingerprint: str
    est_rows: float
    actual_rows: int
    q_error: float
    est_cost: float
    actual_reads: int
    actual_writes: int
    planning_ms: float
    execution_ms: float
    spills: int = 0
    temp_files: int = 0
    plan_changed: bool = False  # chosen plan differs from the baseline
    baseline_cost_delta: float = 0.0  # new est_cost - baseline est_cost
    buffer_hits: int = 0  # pages served from the buffer pool
    plan_cache_hit: bool = False  # physical plan reused from the plan cache
    kind: str = "select"  # select | insert | update | delete
    session_id: int = 0  # owning session (0 = direct Database call)
    txn_id: int = 0  # transaction the statement ran in (0 = autocommit)


class QueryLog:
    """Bounded ring of :class:`QueryLogRecord`."""

    CAPACITY = 256

    def __init__(self):
        self._records: Deque[QueryLogRecord] = deque(maxlen=self.CAPACITY)

    def record(self, entry: QueryLogRecord) -> None:
        self._records.append(entry)

    def __len__(self) -> int:
        return len(self._records)

    def entries(self) -> List[QueryLogRecord]:
        return list(self._records)
