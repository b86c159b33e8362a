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
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Any, Deque, Dict, List, Optional


def q_error(estimated: float, actual: float) -> float:
    """The standard cardinality-estimation error metric (always ≥ 1).

    Edge cases are defined, not accidental: zero (or negative) counts on
    either side are clamped to one row before the ratio — so ``est=0,
    act=0`` is a perfect 1.0, and ``est=0, act=100`` scores the same 100x
    as ``est=1, act=100`` instead of dividing by zero.  Non-finite inputs
    (NaN/inf from broken estimates) return ``inf`` so they sort to the
    top of :meth:`QueryLog.top_misestimates` rather than poisoning the
    ordering with NaN comparisons.
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

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QueryLogRecord":
        """Inverse of :meth:`as_dict`.  Unknown keys are rejected (a
        field added to the dataclass but missing here would silently
        drop data — the round-trip tests enumerate ``fields()`` so any
        serialization omission fails loudly); absent optional fields take
        their defaults and the keys of retired features (the exchange
        layer's, the result cache's) are dropped, so logs persisted by
        older versions still load."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known - {"parallel_workers", "result_cache_hit"}
        if unknown:
            raise ValueError(f"unknown QueryLogRecord fields: {sorted(unknown)}")
        return cls(**{k: v for k, v in data.items() if k in known})


class QueryLog:
    """Bounded ring of :class:`QueryLogRecord`."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._records: Deque[QueryLogRecord] = deque(maxlen=capacity)

    def record(self, entry: QueryLogRecord) -> None:
        self._records.append(entry)

    def __len__(self) -> int:
        return len(self._records)

    def entries(self) -> List[QueryLogRecord]:
        return list(self._records)

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [r.as_dict() for r in self.entries()]

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dicts(), indent=indent)

    @classmethod
    def from_json(cls, text: str, capacity: int = 256) -> "QueryLog":
        """Rebuild a log from :meth:`to_json` output (round-trip)."""
        log = cls(capacity)
        for data in json.loads(text):
            log.record(QueryLogRecord.from_dict(data))
        return log

    def worst_estimates(self, n: int = 10) -> List[QueryLogRecord]:
        """The n records with the largest cardinality q-error — where the
        estimator most needs correcting.  NaN q-errors (which no longer
        occur for new records, but may exist in persisted logs) sort as
        infinite so the ordering stays total."""

        def sort_key(r: QueryLogRecord) -> float:
            return r.q_error if not math.isnan(r.q_error) else math.inf

        return sorted(self.entries(), key=sort_key, reverse=True)[:n]

    #: Alias: the operational name for the same ranking.
    top_misestimates = worst_estimates

    def plan_changes(self) -> List[QueryLogRecord]:
        """Records whose chosen plan differed from the stored baseline."""
        return [r for r in self.entries() if r.plan_changed]

    def by_fingerprint(self) -> Dict[str, List[QueryLogRecord]]:
        out: Dict[str, List[QueryLogRecord]] = {}
        for entry in self.entries():
            out.setdefault(entry.fingerprint, []).append(entry)
        return out

    def clear(self) -> None:
        self._records.clear()
