"""The per-statement store: what each statement cost, and which plan it ran.

The 1977 paper judges an optimizer by setting what it chose beside what
it cost; in a running engine that judgment is per statement.  One
:class:`StatementStore`, keyed by the normalized statement
(:func:`statement_fingerprint`: the statement's tokens with every literal
a ``?``, built from the tokens its parse read) and fed once per recorded
statement, holds it.  Each :class:`StatementStats` entry carries the normalized
text, one :class:`~repro.obs.metrics.Histogram` of execution time (calls,
total, mean and the bucketed p95 all come from it), running sums of rows
and page traffic, and — for a SELECT — the *baseline*: the plan the
optimizer last chose, its structural fingerprint, estimated cost, shape
text and best observed time.

Everything per statement reads these entries: ``sys_stat_statements``,
the ``statement_latency_ms`` Prometheus family and JSON section, the
``plan_baselines`` gauge and ``EXPLAIN DIFF``.  The store is bounded:
once it holds ``MAX_STATEMENTS`` fingerprints a newcomer is dropped and
counted (``dropped``), never evicting a hot entry.

The operational failure mode of a cost-based optimizer is not a slow
plan — it is a *different* plan than yesterday's for the same statement.
When an observed SELECT's plan fingerprint differs from its baseline, a
:class:`PlanChange` event carrying the estimated-cost and measured-latency
deltas goes back to the recorder, the query log marks the record
``plan_changed=True``, and the ``plan_regressions_total`` metric counts
changes whose estimated cost went *up*.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sql.lexer import Token, tokenize
from .metrics import Histogram
from .plandiff import plan_shape_text


def normalize_tokens(tokens: Sequence[Token]) -> str:
    """The normalized statement, from the tokens the parser read: every
    literal is ``?``, words are lower-cased, one space stands where the
    text had blanks or a comment, and the trailing ``;`` goes.  An
    ``EXPLAIN`` prefix (with any option list) goes too, so an ``EXPLAIN
    ANALYZE SELECT ...`` shares its fingerprint with the bare SELECT."""
    start, end = 0, len(tokens) - 1  # the last token is EOF
    if _is(tokens[0], "KEYWORD", "EXPLAIN"):
        start = next(
            (i for i in range(1, end) if _is(tokens[i], "KEYWORD", "SELECT")), 0
        )
    while end > start and _is(tokens[end - 1], "SYMBOL", ";"):
        end -= 1
    text = "".join(
        [
            (" " if tok.spaced else "")
            + ("?" if tok.kind == "NUMBER" or tok.kind == "STRING" else tok.value)
            for tok in tokens[start:end]
        ]
    )
    return text.lower().lstrip()


def _is(tok: Token, kind: str, value: str) -> bool:
    return tok.kind == kind and tok.value == value


def normalize_statement(sql: str) -> str:
    """:func:`normalize_tokens` of *sql*'s tokens; text the lexer cannot
    read raises :class:`~repro.sql.LexError`."""
    return normalize_tokens(tokenize(sql))


@functools.lru_cache(maxsize=1024)
def _digest(normalized: str) -> str:
    # texts differ, shapes repeat: the recorder hashes each shape once
    return hashlib.sha1(normalized.encode("utf-8")).hexdigest()[:12]


def statement_fingerprint(sql: str) -> str:
    """Stable hash of the normalized statement: the statement-store key."""
    return _digest(normalize_statement(sql))


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
    def is_regression(self) -> bool:
        """A change the cost model itself thinks got worse."""
        return self.cost_delta > 0


@dataclass
class StatementStats:
    """One statement fingerprint's cumulative entry.  The plan fields are
    the baseline, set by the first SELECT observed (``plan_fp`` is None
    for a statement that never planned one)."""

    statement: str  # the normalized text
    latency: Histogram  # execution_ms of every call
    rows: int = 0
    buffer_hits: int = 0
    pages_read: int = 0
    pages_written: int = 0
    plan_changes: int = 0
    plan_cache_hits: int = 0
    plan_fp: Optional[str] = None
    est_cost: float = 0.0
    plan_shape: str = ""
    best_ms: float = float("inf")


class StatementStore:
    """Statement entries by fingerprint, at most ``MAX_STATEMENTS`` of
    them.  One writer at a time (the engine's harvest) updates an entry
    under the store's lock; readers copy what they need under the same
    lock, so a read that runs beside a harvest sees every entry whole."""

    MAX_STATEMENTS = 128

    def __init__(self):
        self._entries: Dict[str, StatementStats] = {}
        self._lock = threading.Lock()
        self.dropped = 0

    def observe(
        self,
        sql: str,
        execution_ms: float,
        rows: int = 0,
        buffer_hits: int = 0,
        pages_read: int = 0,
        pages_written: int = 0,
        plan_cache_hit: bool = False,
        plan_fp: Optional[str] = None,
        est_cost: float = 0.0,
        plan: Any = None,
        tokens: Optional[Sequence[Token]] = None,
    ) -> Tuple[str, Optional[PlanChange]]:
        """Record one executed statement; returns its fingerprint and, for
        a SELECT (*plan_fp* given) whose plan differs from the baseline,
        the change event — the baseline then advances to the new plan, so
        a stable new plan fires once.  *plan* is the shape text or the
        plan itself, rendered only when the baseline is new or changed.
        *tokens* are *sql*'s, when the caller parsed it already.  A
        statement the full store has no entry for is dropped and
        counted."""
        statement = normalize_tokens(tokens or tokenize(sql))
        fp = _digest(statement)
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None:
                if len(self._entries) >= self.MAX_STATEMENTS:
                    self.dropped += 1
                    return fp, None
                entry = self._entries[fp] = StatementStats(
                    statement, Histogram()
                )
            entry.latency.observe(execution_ms)
            entry.rows += rows
            entry.buffer_hits += buffer_hits
            entry.pages_read += pages_read
            entry.pages_written += pages_written
            if plan_cache_hit:
                entry.plan_cache_hits += 1
            if plan_fp is None:
                return fp, None
            change = None
            if entry.plan_fp != plan_fp:
                shape = plan if isinstance(plan, str) else plan_shape_text(plan)
                if entry.plan_fp is not None:
                    change = PlanChange(
                        statement_fp=fp,
                        sql=sql,
                        old_plan_fp=entry.plan_fp,
                        new_plan_fp=plan_fp,
                        old_cost=entry.est_cost,
                        new_cost=est_cost,
                        old_best_ms=entry.best_ms,
                        new_ms=execution_ms,
                        old_shape=entry.plan_shape,
                        new_shape=shape,
                    )
                    entry.plan_changes += 1
                entry.plan_fp, entry.plan_shape = plan_fp, shape
            entry.est_cost = est_cost
            if execution_ms < entry.best_ms:
                entry.best_ms = execution_ms
            return fp, change

    def baseline(self, fp: str) -> Optional[Tuple[str, float]]:
        """The stored plan's ``(shape text, estimated cost)``, if any."""
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None or entry.plan_fp is None:
                return None
            return entry.plan_shape, entry.est_cost

    def rows(self) -> List[Tuple[Any, ...]]:
        """``sys_stat_statements`` rows, by statement text: statement,
        calls, total/mean/p95 ms, then the running sums."""
        with self._lock:
            out = [
                (
                    e.statement, e.latency.count, e.latency.sum,
                    e.latency.mean, e.latency.percentile(0.95), e.rows,
                    e.buffer_hits, e.pages_read, e.pages_written,
                    e.plan_changes, e.plan_cache_hits,
                )
                for e in self._entries.values()
            ]
        return sorted(out)

    def quantiles(self) -> List[Tuple[str, str, float]]:
        """Sorted ``(fingerprint, quantile, value_ms)`` samples."""
        with self._lock:
            return [
                (fp, label, entry.latency.percentile(p))
                for fp, entry in sorted(self._entries.items())
                for label, p in (("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99))
            ]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Each fingerprint's execution-time histogram, as plain dicts."""
        with self._lock:
            return {
                fp: entry.latency.snapshot()
                for fp, entry in sorted(self._entries.items())
            }

    def baselines(self) -> int:
        """How many entries hold a plan baseline."""
        with self._lock:
            return sum(e.plan_fp is not None for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
