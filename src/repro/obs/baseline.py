"""Plan baselines and plan-change (regression) detection.

The operational failure mode of a cost-based optimizer is not a slow
plan — it is a *different* plan than yesterday's for the same statement.
A :class:`PlanBaselineStore` remembers, per normalized statement
(:func:`statement_fingerprint`), the plan the optimizer last chose: its
structural fingerprint, estimated cost, shape text and observed latency.
On every execution the engine calls :meth:`PlanBaselineStore.observe`;
when the chosen plan's fingerprint differs from the baseline, a
:class:`PlanChange` event is produced carrying the estimated-cost and
measured-latency deltas, the query log marks the record
``plan_changed=True``, and the ``plan_regressions_total`` metric counts
changes whose estimated cost went *up*.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Deque, Dict, List, Optional

from .plandiff import plan_shape_text

#: a string or a number; a string is tried first at every position, so a
#: digit inside one is never taken for a number
_LITERAL = re.compile(
    r"'(?:[^']|'')*'|\b\d+(?:\.\d+)?(?:e[+-]?\d+)?\b", re.IGNORECASE
)


def normalize_statement(sql: str) -> str:
    """Literal-free, whitespace-collapsed, lower-cased statement text.

    ``EXPLAIN`` prefixes (with any option list) are stripped so an
    ``EXPLAIN ANALYZE SELECT ...`` shares its fingerprint with the bare
    SELECT it wraps.
    """
    text = " ".join(_LITERAL.sub("?", sql).split())
    text = text.lower().rstrip(";").strip()
    if text.startswith("explain"):
        idx = text.find("select")
        if idx > 0:
            text = text[idx:]
    return text


@functools.lru_cache(maxsize=1024)
def _digest(normalized: str) -> str:
    # texts differ, shapes repeat: the recorder hashes each shape once
    return hashlib.sha1(normalized.encode("utf-8")).hexdigest()[:12]


def statement_fingerprint(sql: str) -> str:
    """Stable hash of the normalized statement: the baseline-store key."""
    return _digest(normalize_statement(sql))


@dataclass
class PlanBaseline:
    """The remembered plan for one normalized statement."""

    statement_fp: str
    sql: str  # one example statement text
    plan_fp: str
    est_cost: float
    plan_shape: str  # structural pretty text (describe lines)
    best_ms: float = float("inf")
    last_ms: float = 0.0
    seen: int = 0

    def note_run(self, execution_ms: float) -> None:
        self.seen += 1
        self.last_ms = execution_ms
        if execution_ms < self.best_ms:
            self.best_ms = execution_ms

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class PlanChange:
    """One plan-change event: the same statement picked a new plan."""

    statement_fp: str
    sql: str
    old_plan_fp: str
    new_plan_fp: str
    old_cost: float
    new_cost: float
    old_best_ms: float
    new_ms: float
    old_shape: str
    new_shape: str

    @property
    def cost_delta(self) -> float:
        return self.new_cost - self.old_cost

    @property
    def latency_delta_ms(self) -> float:
        if self.old_best_ms == float("inf"):
            return 0.0
        return self.new_ms - self.old_best_ms

    @property
    def is_regression(self) -> bool:
        """A change the cost model itself thinks got worse."""
        return self.cost_delta > 0

    def as_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["cost_delta"] = self.cost_delta
        out["latency_delta_ms"] = self.latency_delta_ms
        out["is_regression"] = self.is_regression
        return out


class PlanBaselineStore:
    """Baselines by statement fingerprint + a bounded ring of changes."""

    def __init__(self, change_capacity: int = 128):
        self._baselines: Dict[str, PlanBaseline] = {}
        self._changes: Deque[PlanChange] = deque(maxlen=max(1, change_capacity))

    def observe(
        self,
        statement_fp: str,
        sql: str,
        plan_fp: str,
        est_cost: float,
        plan_shape: Any,
        execution_ms: float,
    ) -> Optional[PlanChange]:
        """Record one planned-and-executed statement.  Returns the change
        event when the plan differs from the stored baseline (which is then
        advanced to the new plan, so a stable new plan fires once).
        *plan_shape* is the shape text or the plan itself, which is only
        rendered when the baseline is new or its plan changed."""
        baseline = self._baselines.get(statement_fp)
        if baseline is not None and baseline.plan_fp == plan_fp:
            baseline.est_cost = est_cost
            baseline.note_run(execution_ms)
            return None
        if not isinstance(plan_shape, str):
            plan_shape = plan_shape_text(plan_shape)
        if baseline is None:
            baseline = PlanBaseline(
                statement_fp, sql, plan_fp, est_cost, plan_shape
            )
            self._baselines[statement_fp] = baseline
            baseline.note_run(execution_ms)
            return None
        change = PlanChange(
            statement_fp=statement_fp,
            sql=sql,
            old_plan_fp=baseline.plan_fp,
            new_plan_fp=plan_fp,
            old_cost=baseline.est_cost,
            new_cost=est_cost,
            old_best_ms=baseline.best_ms,
            new_ms=execution_ms,
            old_shape=baseline.plan_shape,
            new_shape=plan_shape,
        )
        self._changes.append(change)
        baseline.plan_fp = plan_fp
        baseline.est_cost = est_cost
        baseline.plan_shape = plan_shape
        baseline.note_run(execution_ms)
        return change

    def get(self, statement_fp: str) -> Optional[PlanBaseline]:
        return self._baselines.get(statement_fp)

    def baseline_for(self, sql: str) -> Optional[PlanBaseline]:
        return self.get(statement_fingerprint(sql))

    def changes(self) -> List[PlanChange]:
        return list(self._changes)

    def regressions(self) -> List[PlanChange]:
        return [c for c in self._changes if c.is_regression]

    def __len__(self) -> int:
        return len(self._baselines)

    def clear(self) -> None:
        self._baselines.clear()
        self._changes.clear()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "baselines": {
                fp: b.as_dict() for fp, b in sorted(self._baselines.items())
            },
            "changes": [c.as_dict() for c in self._changes],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)
