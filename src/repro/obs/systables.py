"""SQL-queryable system statistics: the database observing itself.

The classic operational question — "which statements are hot, where is
time going, which table is getting hammered?" — is answered in industrial
engines by *system views* (``pg_stat_statements``, ``pg_stat_user_tables``,
``v$session``) queried with the engine's own SQL.  This module provides
those tables for this engine:

* ``sys_stat_statements`` — per normalized statement: calls, total/mean/
  p95 latency, rows, buffer hits/page reads, plan-change count
  (aggregated from the query log on every reference);
* ``sys_stat_tables``     — per table: sequential/index scan starts, rows
  read, pages hit/read (from the scan operators' access counters);
* ``sys_stat_waits``      — the wait-event registry: where time goes
  (I/O, lock, CPU), wait_count/total/mean per event;
* ``sys_stat_metrics``    — every registry instrument as rows (histograms
  expand to count/sum/mean/p50/p95/p99);
* ``sys_stat_activity``   — live in-flight statements of every kind,
  readers and writers, with a progress snapshot: phase (a writer parked
  on a table lock shows ``lock wait``), current operator, rows produced,
  elapsed;
* ``sys_stat_traces``     — the slow-trace ring: one row per captured
  request trace (trace id, statement, duration, span count, and the
  slowest non-root span with its share of the request);
* ``sys_stat_locks``      — the table-lock registry: current holder and
  reader counts plus cumulative acquisition/contention/wait totals.

Each is registered with the catalog as a *provider*; when a query
references one, the engine snapshots the provider's rows into a transient
table of the same name and plans against that — so ordinary SELECTs with
filters, joins and ORDER BY all compose, and snapshots are consistent at
statement start (a statement observing ``sys_stat_statements`` does not
see itself).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..types import Column, DataType, Schema
from .baseline import normalize_statement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine wires us)
    from ..engine.database import Database

Rows = List[Tuple[Any, ...]]

#: names of every system table this module registers
SYSTEM_TABLE_NAMES = (
    "sys_stat_statements",
    "sys_stat_tables",
    "sys_stat_waits",
    "sys_stat_metrics",
    "sys_stat_activity",
    "sys_stat_traces",
    "sys_stat_locks",
)


#: the longest statement text a row carries (the stores keep it whole):
#: beside the row's other columns it fits a page whatever its characters
TEXT_LIMIT = 200


def _schema(table: str, *cols: Tuple[str, DataType]) -> Schema:
    return Schema(Column(name, dtype, table, True) for name, dtype in cols)


def _bounded(text: str) -> str:
    return text if len(text) <= TEXT_LIMIT else text[: TEXT_LIMIT - 1] + "…"


# -- live-query activity ------------------------------------------------------


@dataclass
class ActivityEntry:
    """One in-flight statement's progress snapshot."""

    query_id: int
    sql: str
    phase: str = "planning"  # planning [-> lock wait] -> executing
    current_operator: str = ""
    rows_produced: int = 0
    started: float = field(default_factory=time.perf_counter)
    session_id: int = 0
    #: the MVCC read view this statement runs under (None for DML)
    snapshot_ts: Any = None
    snapshot_acquired: float = 0.0

    @property
    def elapsed_ms(self) -> float:
        return (time.perf_counter() - self.started) * 1000.0


class ActivityRegistry:
    """Thread-safe registry of in-flight statements (``sys_stat_activity``).

    The engine begins an entry when a user statement arrives and finishes
    it when the statement completes; the executor's run loop updates the
    progress fields batch by batch.  Reads take a snapshot, so observers
    never block execution.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: Dict[int, ActivityEntry] = {}
        self._next_id = 0

    def begin(self, sql: str, session_id: int = 0) -> ActivityEntry:
        with self._lock:
            self._next_id += 1
            entry = ActivityEntry(self._next_id, sql, session_id=session_id)
            self._live[entry.query_id] = entry
            return entry

    def finish(self, entry: ActivityEntry) -> None:
        with self._lock:
            self._live.pop(entry.query_id, None)

    def live(self) -> List[ActivityEntry]:
        with self._lock:
            return sorted(self._live.values(), key=lambda e: e.query_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._live)


# -- providers ----------------------------------------------------------------


def _exact_percentile(values: List[float], p: float) -> float:
    """Exact percentile (nearest-rank) of a small value list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, round(p * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _stat_statements(db: "Database") -> Tuple[Schema, Rows]:
    schema = _schema(
        "sys_stat_statements",
        ("statement", DataType.TEXT),
        ("calls", DataType.INT),
        ("total_ms", DataType.FLOAT),
        ("mean_ms", DataType.FLOAT),
        ("p95_ms", DataType.FLOAT),
        ("rows", DataType.INT),
        ("buffer_hits", DataType.INT),
        ("pages_read", DataType.INT),
        ("pages_written", DataType.INT),
        ("plan_changes", DataType.INT),
        ("plan_cache_hits", DataType.INT),
    )
    groups: Dict[str, List[Any]] = {}
    for record in db.query_log.entries():
        statement = normalize_statement(record.sql)
        group = groups.get(statement)
        if group is None:
            group = groups[statement] = [[], 0, 0, 0, 0, 0, 0]
        group[0].append(record.execution_ms)
        group[1] += record.actual_rows
        group[2] += record.buffer_hits
        group[3] += record.actual_reads
        group[4] += record.actual_writes
        group[5] += 1 if record.plan_changed else 0
        group[6] += 1 if record.plan_cache_hit else 0
    rows: Rows = []
    for statement, (
        times,
        nrows,
        hits,
        reads,
        writes,
        changes,
        plan_hits,
    ) in sorted(groups.items()):
        total = sum(times)
        rows.append(
            (
                _bounded(statement),
                len(times),
                total,
                total / len(times),
                _exact_percentile(times, 0.95),
                nrows,
                hits,
                reads,
                writes,
                changes,
                plan_hits,
            )
        )
    return schema, rows


def _stat_tables(db: "Database") -> Tuple[Schema, Rows]:
    schema = _schema(
        "sys_stat_tables",
        ("table_name", DataType.TEXT),
        ("num_rows", DataType.INT),
        ("num_pages", DataType.INT),
        ("seq_scans", DataType.INT),
        ("index_scans", DataType.INT),
        ("rows_read", DataType.INT),
        ("pages_hit", DataType.INT),
        ("pages_read", DataType.INT),
        ("pages_skipped", DataType.INT),
    )
    rows: Rows = []
    for info in sorted(db.catalog.tables(), key=lambda t: t.name):
        # skip this statement's own transient materializations (system
        # snapshots, decorrelated subqueries): they are not user tables
        if info.name.startswith("__"):
            continue
        if info.name.lower() in db.catalog.system_table_names():
            continue
        access = info.access
        rows.append(
            (
                info.name,
                info.num_rows,
                info.num_pages,
                access.seq_scans,
                access.index_scans,
                access.rows_read,
                access.pages_hit,
                access.pages_read,
                access.pages_skipped,
            )
        )
    return schema, rows


def _stat_waits(db: "Database") -> Tuple[Schema, Rows]:
    schema = _schema(
        "sys_stat_waits",
        ("event", DataType.TEXT),
        ("wait_class", DataType.TEXT),
        # "count" would collide with the COUNT() keyword in queries
        ("wait_count", DataType.INT),
        ("total_ms", DataType.FLOAT),
        ("mean_ms", DataType.FLOAT),
    )
    rows: Rows = [
        (event, event.split(".", 1)[0], count, total_ms, mean_ms)
        for event, count, total_ms, mean_ms in db.waits.rows()
    ]
    return schema, rows


def _stat_metrics(db: "Database") -> Tuple[Schema, Rows]:
    schema = _schema(
        "sys_stat_metrics",
        ("name", DataType.TEXT),
        ("kind", DataType.TEXT),
        ("value", DataType.FLOAT),
    )
    snap = db.metrics.snapshot()
    rows: Rows = []
    for name, value in sorted(snap["counters"].items()):
        rows.append((name, "counter", float(value)))
    for name, value in sorted(snap["gauges"].items()):
        rows.append((name, "gauge", float(value)))
    for name, hist in sorted(snap["histograms"].items()):
        for part in ("count", "sum", "mean", "p50", "p95", "p99"):
            rows.append((f"{name}.{part}", "histogram", float(hist[part])))
    return schema, rows


def _stat_activity(db: "Database") -> Tuple[Schema, Rows]:
    """Live statements plus one row per idle session, so connections are
    visible even between statements (the columns new in this shape —
    ``session_id``, ``state`` — sit at the end, after the originals)."""
    schema = _schema(
        "sys_stat_activity",
        ("query_id", DataType.INT),
        ("phase", DataType.TEXT),
        ("current_operator", DataType.TEXT),
        ("rows_produced", DataType.INT),
        ("elapsed_ms", DataType.FLOAT),
        ("sql", DataType.TEXT),
        ("session_id", DataType.INT),
        ("state", DataType.TEXT),
        ("snapshot_ts", DataType.INT),
        ("snapshot_age_ms", DataType.FLOAT),
    )
    now = time.monotonic()

    def _age(acquired: float) -> float:
        return max(0.0, (now - acquired) * 1000.0)

    rows: Rows = [
        (
            entry.query_id,
            entry.phase,
            entry.current_operator,
            entry.rows_produced,
            entry.elapsed_ms,
            _bounded(" ".join(entry.sql.split())),
            entry.session_id,
            "active",
            entry.snapshot_ts,
            _age(entry.snapshot_acquired)
            if entry.snapshot_ts is not None
            else None,
        )
        for entry in db.activity.live()
    ]
    busy = {row[6] for row in rows}
    for session in getattr(db, "sessions", list)():
        if session.id in busy:
            continue
        state = "idle in transaction" if session.in_transaction else "idle"
        # an idle-in-transaction session may still pin a repeatable-read
        # snapshot — exactly the thing that blocks version pruning, so
        # exactly the thing an operator needs to see
        snap = session.txn.snapshot if session.txn is not None else None
        rows.append(
            (
                0, "", "", 0, 0.0, "", session.id, state,
                snap.ts if snap is not None else None,
                _age(snap.acquired_at) if snap is not None else None,
            )
        )
    return schema, rows


def _stat_traces(db: "Database") -> Tuple[Schema, Rows]:
    """The slow-trace ring as rows, newest last.  ``top_span``/``top_ms``
    name the slowest non-root span in each tree — usually the first
    thing an operator wants to know about a slow request."""
    schema = _schema(
        "sys_stat_traces",
        ("trace_id", DataType.TEXT),
        ("sql", DataType.TEXT),
        ("session_id", DataType.INT),
        ("duration_ms", DataType.FLOAT),
        ("spans", DataType.INT),
        ("top_span", DataType.TEXT),
        ("top_ms", DataType.FLOAT),
        ("top_share", DataType.FLOAT),
        ("captured_at", DataType.FLOAT),
    )
    rows: Rows = []
    for trace in db.traces.entries():
        top_name, top_ms = "", 0.0
        if trace.root is not None:
            for span in trace.root.walk():
                if span is trace.root:
                    continue
                if span.duration_ms > top_ms:
                    top_name, top_ms = span.name, span.duration_ms
        share = top_ms / trace.duration_ms if trace.duration_ms > 0 else 0.0
        rows.append(
            (
                trace.trace_id,
                _bounded(" ".join(trace.sql.split())),
                trace.session_id or 0,
                trace.duration_ms,
                trace.span_count(),
                top_name,
                top_ms,
                share,
                trace.captured_at,
            )
        )
    return schema, rows


def _stat_locks(db: "Database") -> Tuple[Schema, Rows]:
    schema = _schema(
        "sys_stat_locks",
        ("table_name", DataType.TEXT),
        ("holder_txn", DataType.INT),
        ("writers_waiting", DataType.INT),
        ("acquisitions", DataType.INT),
        ("contended", DataType.INT),
        ("wait_ms", DataType.FLOAT),
    )
    rows: Rows = [
        (
            lock["table"],
            lock["holder_txn"],
            lock["writers_waiting"],
            lock["acquisitions"],
            lock["contended"],
            lock["wait_ms"],
        )
        for lock in db.txn.lock_rows()
    ]
    return schema, rows


def register_system_tables(db: "Database") -> None:
    """Register every ``sys_stat_*`` provider with *db*'s catalog."""
    providers = {
        "sys_stat_statements": _stat_statements,
        "sys_stat_tables": _stat_tables,
        "sys_stat_waits": _stat_waits,
        "sys_stat_metrics": _stat_metrics,
        "sys_stat_activity": _stat_activity,
        "sys_stat_traces": _stat_traces,
        "sys_stat_locks": _stat_locks,
    }
    for name in SYSTEM_TABLE_NAMES:
        provider = providers[name]
        db.catalog.register_system_table(
            name, lambda p=provider: p(db)
        )
