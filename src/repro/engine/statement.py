"""The statement path of :class:`~repro.engine.Database`: one entry
(:func:`run_statement`), one read envelope (:func:`read`), one write
envelope (:func:`write`) and one recorder (:func:`record`, fed into the
stores by :func:`harvest`), sharing a :class:`StatementContext`.  Each
takes the ``Database`` as its first argument and reads the engine's
state through it.  A transient table comes in only by
:func:`materialize` and goes only when its :func:`scoped` ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from ..catalog import Catalog, TableInfo
from ..executor import ExecMetrics
from ..executor.scans import live_rows
from ..expr import Literal, compile_expr, compile_predicate, fold_constants, split_conjuncts
from ..obs import (
    QueryLogRecord,
    Span,
    Tracer,
    activate_tracer,
    active_tracer,
    plan_diff,
    plan_fingerprint,
    plan_shape_text,
    q_error,
    statement_fingerprint,
    trace_span,
)
from ..optimizer import PlannerStats, access_paths
from ..physical import PhysicalPlan, PIndexScan, PLimit
from ..sql import (
    AnalyzeStmt,
    BeginStmt,
    CheckpointStmt,
    CommitStmt,
    CreateIndexStmt,
    CreateTableStmt,
    CreateViewStmt,
    DeleteStmt,
    DropTableStmt,
    DropViewStmt,
    ExplainStmt,
    InsertStmt,
    RollbackStmt,
    SelectStmt,
    UpdateStmt,
    parse,
)
from ..storage import BufferStats, IOStats
from ..types import Schema
from ..wal import TransactionTooLarge
from .cache import CachedPlan, relation_estimator
from .views import ViewDef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import ActivityEntry
    from ..sql import Token
    from ..wal import Snapshot, Transaction
    from .database import Database
    from .session import Session


class EngineError(Exception):
    """Raised for statements the engine cannot execute."""


@dataclass
class QueryResult:
    """Rows plus everything the experiments need to know about the run."""

    rows: List[Tuple[Any, ...]]
    columns: List[str]
    plan: Optional[PhysicalPlan] = None
    io: Optional[IOStats] = None
    buffer: Optional[BufferStats] = None
    exec_metrics: Optional[ExecMetrics] = None
    planner_stats: Optional[PlannerStats] = None
    planning_seconds: float = 0.0
    execution_seconds: float = 0.0
    trace: Optional[Span] = None

    @property
    def rowcount(self) -> int:
        return len(self.rows)


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
    #: how many transient tables were live when its scope opened: the
    #: ones past this mark are its own (see :func:`scoped`)
    transients: int = 0

    def phase(self, name: str) -> None:
        if self.entry is not None:
            self.entry.phase = name


#: what the harvest feeds per SELECT and per DML statement, as
#: ``MetricsRegistry.bind`` takes them: (counters, histograms, gauges)
_SELECT_INSTRUMENTS = (
    (
        "queries_total", "rows_returned_total", "pages_read_total",
        "pages_written_total", "spills_total", "temp_files_total",
        "exec_row_fallbacks_total",
    ),
    ("planning_ms", "execution_ms"),
    ("buffer_hit_ratio",),
)
_DML_INSTRUMENTS = (
    ("dml_statements_total", "rows_modified_total"), ("dml_execution_ms",), (),
)


def run_statement(
    db: Database,
    source: Any,
    session: Optional[Session] = None,
    select_only: bool = False,
) -> QueryResult:
    """The one statement entry.  *source* is SQL text, or an already
    parsed SELECT for the nested internal selects (view
    materialization, subquery substitution): those run under a trace
    of their own and, having no text, are neither shown in
    ``sys_stat_activity`` nor logged.  A user statement joins the
    tracer active on its thread (the server's per-request one) or
    opens its own; everything below goes through ``trace_span``.
    Whoever owns the tracer owns the request and finalizes it —
    ``Database.capture_trace``, then ``harvest_pending``: here before
    returning, the server once its reply is on the wire."""
    if db._refusal is not None:
        raise EngineError(db._refusal)
    session = session or db._session
    sql = source if isinstance(source, str) else None
    tracer = None if sql is None else active_tracer()
    own = tracer is None
    if own:
        tracer = Tracer(enabled=db.obs.enabled)
    entry = None if sql is None else db.activity.begin(sql, session.id)
    try:
        with activate_tracer(tracer), tracer.span("query"):
            if sql is None:
                stmt = source
            else:
                with tracer.span("parse"):
                    stmt = parse(sql)
            st = StatementContext(session, sql, entry, stmt.tokens)
            if isinstance(stmt, SelectStmt):
                result = read(db, st, stmt)
            elif select_only:
                raise EngineError("query() expects a SELECT; use execute()")
            elif isinstance(stmt, ExplainStmt):
                result = explain(db, st, stmt)
            elif isinstance(stmt, (BeginStmt, CommitStmt, RollbackStmt)):
                result = db._txn_control(session, stmt)
            elif isinstance(stmt, CheckpointStmt):
                result = db.checkpoint()
            elif isinstance(stmt, (InsertStmt, DeleteStmt, UpdateStmt)):
                result = dml(db, st, stmt)
            else:
                result = utility(db, st, stmt)
    finally:
        if entry is not None:
            db.activity.finish(entry)
    if own and tracer.root is not None:
        result.trace = tracer.root
        if sql is not None:
            db.capture_trace(tracer, sql, session_id=session.id)
    if own and db._pending:
        db.harvest_pending()
    return result


# -- transient tables: the one door -------------------------------------------------------


def materialize(
    catalog: Catalog, live: List[str], name: str, schema: Schema, rows: Sequence[Sequence[Any]]
) -> str:
    """Create the transient table *name*, register it on *live*, fill it
    with *rows* and ANALYZE it, so the planner prices it like any
    table."""
    catalog.create_table(name, schema)
    # registered at once, so it is dropped with the statement even
    # when a later view or subquery of the same statement fails
    live.append(name)
    catalog.insert_rows(name, rows)
    catalog.analyze(name)
    return name


def scoped(db: Database, st: StatementContext, body: Callable[..., Any], *args: Any) -> Any:
    """Run ``body(*args)`` under the statement lock as *st*'s scope:
    nested internal selects read through its snapshot (the outer
    statement's when it has none), and every transient table registered
    while it runs is dropped when it returns or raises, so planning,
    which materializes them into real catalog tables, never leaves one
    behind."""
    live = db._live_transients
    with db._stmt_lock:
        outer_snapshot = db._active_snapshot
        if st.snapshot is None:
            st.snapshot = outer_snapshot
        db._active_snapshot = st.snapshot
        st.transients = len(live)
        try:
            return body(*args)
        finally:
            db._active_snapshot = outer_snapshot
            mine = live[st.transients:]
            del live[st.transients:]
            for name in mine:
                if db.catalog.has_table(name):
                    db.catalog.drop_table(name)


def read(
    db: Database,
    st: StatementContext,
    stmt: SelectStmt,
    analyze: bool = False,
    collect_search: Optional[bool] = None,
) -> QueryResult:
    """The read envelope: pin or acquire the snapshot, then plan,
    execute and record in the statement's scope, then release."""
    # MVCC: user statements read through a commit-timestamp snapshot
    # instead of locking — they never block on writers and never see
    # uncommitted rows.  Inside an explicit transaction the snapshot
    # is pinned at the first SELECT and reused until COMMIT/ROLLBACK
    # (repeatable reads, released by TxnManager._finish); autocommit
    # SELECTs take a statement snapshot (read committed).  Nested
    # internal selects inherit the outer statement's view below, so
    # one statement reads one consistent state.
    release = False
    if st.sql is not None:
        txn = st.txn = st.session.txn
        if txn is None or txn.snapshot is None:
            with trace_span("mvcc.acquire") as sp:
                st.snapshot = db.txn.versions.acquire(
                    txn.id if txn is not None else 0
                )
                sp.set_attr(
                    "scope", "statement" if txn is None else "transaction"
                )
                sp.add("snapshot_ts", float(st.snapshot.ts))
            if txn is None:
                release = True
            else:
                txn.snapshot = st.snapshot
        else:
            st.snapshot = txn.snapshot
        st.entry.snapshot_ts = st.snapshot.ts
        st.entry.snapshot_acquired = st.snapshot.acquired_at
    try:
        return scoped(db, st, run_select, db, st, stmt, analyze, collect_search)
    finally:
        if release:
            with trace_span("mvcc.release"):
                db.txn.versions.release(st.snapshot)


def run_select(
    db: Database,
    st: StatementContext,
    stmt: SelectStmt,
    analyze: bool,
    collect_search: Optional[bool],
) -> QueryResult:
    """Plan (or fetch the cached plan), execute and record, inside the
    statement's scope; leaves the chosen plan on *st*."""
    pstats = PlannerStats()

    def plan_cold() -> PhysicalPlan:
        nonlocal pstats
        physical, pstats = db.plan_select(stmt, collect_search)
        return physical

    st.plan, cached, st.plan_cache_hit = cached_plan(db, st, stmt, plan_cold)
    if cached is not None:
        st.plan_fp = cached.fingerprint
    planning = time.perf_counter() - st.start
    st.phase("executing")
    blocked = db.waits.blocked_seconds()
    with trace_span("execute"):
        result = db.run_plan(
            st.plan, analyze=analyze, activity=st.entry,
            snapshot=st.snapshot,
        )
    if db.obs.enabled:
        # exec.cpu = wall execution time minus the time this thread
        # spent blocked during it (another session's fsync is not
        # ours), so cpu + io + lock adds back up to measured
        # execution time
        blocked = db.waits.blocked_seconds() - blocked
        db.waits.record(
            "exec.cpu", max(0.0, result.execution_seconds - blocked)
        )
    result.planner_stats = pstats
    result.planning_seconds = planning
    record(db, st, result, result.rowcount)
    return result


def explain(db: Database, st: StatementContext, stmt: ExplainStmt) -> QueryResult:
    """EXPLAIN [(ANALYZE | VERBOSE | SEARCH | DIFF)]: render the plan
    (with actuals when executed), optionally followed by the
    optimizer's search trace, or diffed against the stored baseline."""
    collect_search = True if stmt.search else None
    if stmt.analyze and not stmt.diff:
        inner = read(db, st, stmt.inner, analyze=True, collect_search=collect_search)
        text = inner.plan.pretty(actuals=True)
        text += (
            f"\nplanning: {inner.planning_seconds * 1000:.1f} ms"
            f"\nexecution: {inner.execution_seconds * 1000:.1f} ms, "
            f"{inner.io.reads} reads / {inner.io.writes} writes, "
            f"{inner.rowcount} rows"
        )
        text += search_section(db, stmt)
        return dc_replace(
            inner,
            rows=[(line,) for line in text.splitlines()],
            columns=["plan"],
        )
    # planned in a scope of its own: the views and ``sys_stat_*``
    # snapshots planning materializes are dropped before it returns
    physical, pstats = scoped(db, st, db.plan_select, stmt.inner, collect_search)
    planning = time.perf_counter() - st.start
    if not stmt.diff:
        text = physical.pretty() + search_section(db, stmt)
    else:
        # diffing is a read-only question: the baseline is NOT advanced
        baseline = db.statements.baseline(statement_fingerprint(st.sql))
        if baseline is None:
            text = (
                physical.pretty()
                + "\n\n(no stored baseline for this statement yet — "
                "run it once to establish one)"
            )
        else:
            shape, cost = baseline
            text = plan_diff(
                shape,
                plan_shape_text(physical),
                cost,
                physical.total_est_cost(),
            )
    return QueryResult(
        rows=[(line,) for line in text.splitlines()],
        columns=["plan"],
        plan=physical,
        planner_stats=pstats,
        planning_seconds=planning,
    )


def search_section(db: Database, stmt: ExplainStmt) -> str:
    if not stmt.search or db.last_search is None:
        return ""
    return "\n\nSearch:\n" + db.last_search.render(verbose=stmt.verbose)


def cached_plan(
    db: Database, st: StatementContext, stmt: Any, plan_cold: Callable[[], PhysicalPlan]
) -> Tuple[PhysicalPlan, Optional[CachedPlan], bool]:
    """Lookup-or-plan through the plan cache, for a SELECT and for the
    scan that locates an UPDATE/DELETE's rows alike: the executable
    plan for *stmt*'s parameters, its cache entry, and whether that
    was a hit.  On a miss *plan_cold* plans the statement (its
    literals slotted) and the result becomes the template of a new
    variant — unless it leans on transient tables, in which case it
    is run as it is and there is no entry.  A cached template is
    never executed itself.

    Only a statement ``parse`` gave a shape key is cached: not a
    nested internal select, not EXPLAIN's SELECT (EXPLAIN ANALYZE
    shows a cold plan), not one with a subquery (decomposition bakes
    subquery *results* into the plan).  Neither is anything while
    feedback is on: feedback-corrected plans drift between runs."""
    if stmt.key is None or not db.plan_cache.size or db._options.use_feedback:
        return plan_cold(), None, False
    shape = (db._options_key, stmt.key)
    params = stmt.params
    cache = db.plan_cache
    replans = cache.stats.replans
    cached = cache.lookup(shape, params)
    hit = cached is not None
    if db.obs.enabled:
        db._metrics.counter(
            "cache_plan_hits_total" if hit else "cache_plan_misses_total"
        ).inc()
        if cache.stats.replans != replans:
            db._metrics.counter("cache_plan_replans_total").inc()
    if cached is None:
        physical = plan_cold()
        if len(db._live_transients) > st.transients:
            return physical, None, False
        cached = CachedPlan(physical, params)
        cache.store(shape, cached)
    return cached.bind(params), cached, hit


def write(db: Database, st: StatementContext, tables: Sequence[str], body) -> Any:
    """The write envelope, shared by DDL, INSERT/UPDATE/DELETE,
    ``insert_rows`` and ``analyze``: run *body* under the session's
    transaction (or an implicit autocommitted one).  Table locks are
    taken *before* the statement lock — lock waits must not block the
    engine — and an implicit COMMIT's fsync happens *after* the
    statement lock is released (group commit batching)."""
    if db._refusal is not None:
        raise EngineError(db._refusal)
    session = st.session
    own = session.txn
    txn = st.txn = own if own is not None else db.txn.begin()
    try:
        st.phase("lock wait")
        for table in tables:
            db.txn.lock_table(txn, table)
        st.phase("executing")
        with db.txn.activate(txn), db._stmt_lock:
            out = body()
    except BaseException as exc:
        # statement failure aborts the whole transaction (a partially
        # applied statement cannot be left behind)
        if isinstance(exc, TransactionTooLarge) and db.obs.enabled:
            db._metrics.counter("transactions_too_large_total").inc()
        if own is not None:
            session.txn = None
        db._rollback_txn(txn)
        raise
    if own is None:
        db._commit_txn(txn)
    return out


def dml(db: Database, st: StatementContext, stmt: Any) -> QueryResult:
    """INSERT/UPDATE/DELETE: through the write envelope, then recorded."""
    is_insert = isinstance(stmt, InsertStmt)
    st.kind = (
        "insert"
        if is_insert
        else "delete" if isinstance(stmt, DeleteStmt) else "update"
    )
    st.io0 = db.disk.stats.snapshot()

    def body() -> int:
        with trace_span("execute") as sp:
            if is_insert:
                count = insert(db, stmt)
            else:
                # the access path that located the victims, and
                # whether it came out of the plan cache
                apply = delete if st.kind == "delete" else update
                count, st.plan, st.plan_cache_hit = apply(db, st, stmt)
                sp.set_attr(
                    "access_path",
                    st.plan.index.name
                    if isinstance(st.plan, PIndexScan)
                    else "seq",
                )
            sp.add("rows_modified", float(count))
        return count

    count = write(db, st, [stmt.table], body)
    record(db, st, None, count)
    if is_insert:
        return QueryResult(rows=[], columns=[])
    return QueryResult(rows=[(count,)], columns=[f"{st.kind}d"])


def utility(
    db: Database, st: StatementContext, stmt: Any, **stats_options: Any
) -> QueryResult:
    """DDL and ANALYZE: autocommitted through the write envelope and
    logged as DDL (recovery replays the text).  *stats_options* are
    ``Database.analyze``'s histogram settings."""
    if st.session.txn is not None:
        raise EngineError(
            "DDL and utility statements autocommit and cannot run "
            "inside an explicit transaction"
        )

    def body() -> QueryResult:
        result = apply_utility(db, stmt, st.sql, **stats_options)
        db.txn.log_ddl(json.dumps({"sql": st.sql}).encode("utf-8"))
        return result

    return write(db, st, utility_lock_targets(db, stmt), body)


def utility_lock_targets(db: Database, stmt: Any) -> List[str]:
    """Tables a DDL/utility statement must quiesce before running."""
    if isinstance(stmt, AnalyzeStmt) and stmt.table is None:
        return sorted(info.name for info in db.catalog.tables())
    if isinstance(stmt, (CreateIndexStmt, DropTableStmt, AnalyzeStmt)):
        if db.catalog.has_table(stmt.table):
            return [stmt.table]
    return []


def apply_utility(
    db: Database, stmt: Any, sql: str, **stats_options: Any
) -> QueryResult:
    if isinstance(stmt, AnalyzeStmt):
        db._invalidate_caches("ANALYZE")
        if stmt.table is None:
            db.catalog.analyze_all(**stats_options)
            analyzed = sorted(db.catalog.tables(), key=lambda info: info.name)
        else:
            db.catalog.analyze(stmt.table, **stats_options)
            analyzed = [db.catalog.table(stmt.table)]
        rows = [
            (info.name, info.stats.num_rows, info.num_pages)
            for info in analyzed
        ]
        return QueryResult(rows=rows, columns=["table", "rows", "pages"])
    if isinstance(stmt, CreateTableStmt):
        db._invalidate_caches("CREATE TABLE")
        db.catalog.create_table(stmt.table, stmt.schema())
        for name, column in stmt.primary_key_indexes():
            db.catalog.create_index(name, stmt.table, column, clustered=True)
    elif isinstance(stmt, CreateIndexStmt):
        db._invalidate_caches("CREATE INDEX")
        db.catalog.create_index(
            stmt.name, stmt.table, stmt.column, stmt.clustered
        )
    elif isinstance(stmt, DropTableStmt):
        db._invalidate_caches("DROP TABLE")
        db.catalog.drop_table(stmt.table)
        # a later table reusing the name must not inherit stale chains
        db.txn.versions.drop_table(stmt.table)
    elif isinstance(stmt, CreateViewStmt):
        key = stmt.name.lower()
        if db.catalog.has_table(stmt.name) or key in db.views:
            raise EngineError(f"name {stmt.name!r} already in use")
        db._invalidate_caches("CREATE VIEW")
        db.views[key] = ViewDef(stmt.name, stmt.select, sql)
    elif isinstance(stmt, DropViewStmt):
        if stmt.name.lower() not in db.views:
            raise EngineError(f"no such view: {stmt.name}")
        db._invalidate_caches("DROP VIEW")
        del db.views[stmt.name.lower()]
    else:
        raise EngineError(f"unsupported statement {type(stmt).__name__}")
    return QueryResult(rows=[], columns=[])


def insert(db: Database, stmt: InsertStmt) -> int:
    info = db.catalog.table(stmt.table)
    names = [column.name for column in info.schema]
    columns = names if stmt.columns is None else stmt.columns
    if len(set(columns)) != len(columns):
        duplicated = sorted({c for c in columns if columns.count(c) > 1})
        raise EngineError(f"INSERT names a column twice: {duplicated}")
    unknown = sorted(set(columns) - set(names))
    if unknown:
        raise EngineError(f"unknown INSERT columns: {unknown}")
    #: schema position -> position in the statement's value lists
    source = [
        columns.index(name) if name in columns else None for name in names
    ]
    # every row is shaped before the first is stored
    rows = []
    for value_row in stmt.rows:
        if len(value_row) != len(columns):
            raise EngineError(
                f"INSERT has {len(columns)} columns "
                f"but {len(value_row)} values"
            )
        literals: List[Any] = []
        for expr in value_row:
            folded = fold_constants(expr)
            if not isinstance(folded, Literal):
                raise EngineError(
                    f"INSERT values must be constants, got {expr}"
                )
            literals.append(folded.value)
        rows.append(
            tuple(None if i is None else literals[i] for i in source)
        )
    return db.catalog.insert_rows(stmt.table, rows)


def victims(
    db: Database, st: StatementContext, info: TableInfo, stmt: Any
) -> Tuple[List[Tuple[Any, Any]], PhysicalPlan, bool]:
    """The (rid, row) pairs an UPDATE/DELETE touches, the scan that
    found them, and whether that scan came out of the plan cache: the
    cheapest access path the optimizer prices for its WHERE — the
    estimator and cost model a SELECT is planned with, and the same
    cache, keyed by table and WHERE shape — run against the current
    heap (the caller holds the table's exclusive lock; its own
    uncommitted rows are visible).  Never index-only: the old row is
    needed to maintain the indexes.  Every fetched row is
    re-checked against the whole WHERE, and the list is complete
    before the first mutation, so an UPDATE that moves the key of the
    index being scanned visits each row once.  The candidates are
    priced without the vectorized-CPU discount: ``live_rows`` walks
    tuples with a scalar predicate whichever engine runs queries, so a
    SELECT and an UPDATE with one WHERE may pick different paths."""
    where = stmt.where
    # compiled first: a mistyped WHERE fails before anything is priced
    predicate = (
        compile_predicate(where, info.schema)
        if where is not None
        else None
    )

    def plan_cold() -> PhysicalPlan:
        candidates = access_paths(
            info,
            info.name,
            split_conjuncts(where),
            relation_estimator(
                info,
                info.name,
                db.feedback if db._options.use_feedback else None,
            ),
            db.model.undiscounted(),
            consider_unbounded_index=False,
        )
        return min(candidates, key=lambda cand: cand.cost.total).plan

    plan, _, hit = cached_plan(db, st, stmt, plan_cold)
    return list(live_rows(plan, predicate)), plan, hit


def delete(db: Database, st: StatementContext, stmt: DeleteStmt) -> Tuple[int, PhysicalPlan, bool]:
    info = db.catalog.table(stmt.table)
    rows, path, hit = victims(db, st, info, stmt)
    for rid, row in rows:
        info.delete(rid, row)
    return len(rows), path, hit


def update(db: Database, st: StatementContext, stmt: UpdateStmt) -> Tuple[int, PhysicalPlan, bool]:
    info = db.catalog.table(stmt.table)
    schema = info.schema
    positions = []
    setters = []
    for column, expr in stmt.assignments:
        positions.append(schema.index_of(column))
        # a bare NULL takes the column's type; a NOT NULL column refuses
        # it when the row is stored, as an INSERT's
        bare_null = isinstance(expr, Literal) and expr.value is None
        setters.append((lambda row: None) if bare_null else compile_expr(expr, schema))
    rows, path, hit = victims(db, st, info, stmt)
    for rid, row in rows:
        new_row = list(row)
        for pos, setter in zip(positions, setters):
            new_row[pos] = setter(row)
        info.update(rid, row, new_row)
    return len(rows), path, hit


# -- the recorder -----------------------------------------------------------------------


def record(
    db: Database, st: StatementContext, result: Optional[QueryResult], rows: int
) -> None:
    """The one recorder, on the reply path: queue a finished statement
    — a SELECT with its *result*, or a DML statement (*result* is
    None) — for :func:`harvest`, keeping only what will not be there
    to read later: a DML statement's latency as the client saw it
    (for autocommit DML that includes the COMMIT's group-batched
    fsync) and its disk delta.  While auto_explain is enabled the
    same, with the search trace its capture would render, is left on
    the request's tracer.  The result's row list is not kept."""
    if not db.obs.enabled:
        return
    if result is None:
        elapsed_ms = (time.perf_counter() - st.start) * 1000.0
        measured = (0.0, elapsed_ms, db.disk.stats.delta(st.io0), None, 0)
    else:
        measured = (
            result.planning_seconds * 1000.0,
            result.execution_seconds * 1000.0,
            result.io, result.exec_metrics, result.buffer.hits,
        )
    args = (st, rows, *measured)
    if st.sql is not None and db._auto_explain.config.enabled:
        active_tracer().statement = (*args, db.last_search)
    db._pending.append((harvest, (db, *args)))
    if len(db._pending) >= db.PENDING_BOUND:
        db.harvest_pending()


def harvest(
    db: Database, st: StatementContext, rows: int, planning_ms: float,
    execution_ms: float, io: IOStats, em: Optional[ExecMetrics],
    buffer_hits: int,
) -> None:
    """All of what ``ObsConfig.enabled`` buys besides span trees and
    wait hooks: feed one recorded statement into the metrics
    registry, the feedback store, the statement store and the query
    log (with session/txn attribution).
    *rows* is what it returned or modified; ``st.plan`` is the
    SELECT's plan or the scan that located an UPDATE/DELETE's rows
    (None for INSERT), whose estimates the log scores against *rows*.
    Runs under the harvest lock, so it reaches the stores by their
    private names, never through the harvesting door."""
    sql, plan = st.sql, st.plan
    select = st.kind == "select"
    est_cost = 0.0 if plan is None else plan.total_est_cost()
    spills = temp_files = 0
    if select:
        (
            queries, returned, read_pages, written, spilled, temps, fallbacks,
            planning_h, execution_h, hit_ratio,
        ) = db._metrics.bind(_SELECT_INSTRUMENTS)
        queries.inc()
        planning_h.observe(planning_ms)
        execution_h.observe(execution_ms)
        returned.inc(rows)
        for counter, amount in (
            (read_pages, io.reads), (written, io.writes), (spilled, em.spills),
            (temps, em.temp_files), (fallbacks, em.row_fallbacks),
        ):
            if amount:
                counter.inc(amount)
        hit_ratio.set(db.pool.stats.hit_rate)
        # plans under a LIMIT are not harvested: early termination
        # leaves actuals that reflect the cutoff, not the data, and
        # learning from them would poison the corrections
        if db.obs.feedback:
            db._feedback.harvest(plan, unless=PLimit)
        if sql is None:
            return  # a nested internal select: no text to record under
        plan_fp = st.plan_fp or plan_fingerprint(plan)
        spills, temp_files = em.spills, em.temp_files
    else:
        statements, modified, execution_h = db._metrics.bind(_DML_INSTRUMENTS)
        statements.inc()
        modified.inc(rows)
        execution_h.observe(execution_ms)
        plan_fp = None
    statement_fp, change = db._statements.observe(
        sql, execution_ms, rows, buffer_hits, io.reads, io.writes,
        st.plan_cache_hit, plan_fp, est_cost,
        plan,  # rendered only for a new or changed baseline
        st.tokens,
    )
    if change is not None:
        db._metrics.counter("plan_changes_total").inc()
        if change.is_regression:
            db._metrics.counter("plan_regressions_total").inc()
    # the log names a SELECT by its plan, a DML statement by its text
    fingerprint = statement_fp if plan_fp is None else plan_fp
    est_rows = float(rows) if plan is None else plan.est_rows
    db._query_log.record(
        QueryLogRecord(
            sql=sql,
            fingerprint=fingerprint,
            est_rows=est_rows,
            actual_rows=rows,
            q_error=q_error(est_rows, float(rows)),
            est_cost=est_cost,
            actual_reads=io.reads,
            actual_writes=io.writes,
            planning_ms=planning_ms,
            execution_ms=execution_ms,
            spills=spills,
            temp_files=temp_files,
            plan_changed=change is not None,
            baseline_cost_delta=0.0 if change is None else change.cost_delta,
            buffer_hits=buffer_hits,
            plan_cache_hit=st.plan_cache_hit,
            kind=st.kind,
            session_id=st.session.id,
            txn_id=st.txn.id if st.txn is not None else 0,
        )
    )
